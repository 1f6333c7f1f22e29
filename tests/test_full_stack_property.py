"""Full-stack property test: random datatypes through every method.

Hypothesis generates small derived datatypes and draws the server
scheduler; every one of the six methods writes a file view built from
them through the MPI-IO stack, the view is read back, and the file and
the buffers are held to ``tests/reference/bytes.py`` — worked out from
the MPI typemap alone, bypassing the whole I/O stack
(``test_byte_oracle.check``).  Data sieving writes under
``supports_locking=True``.
"""

import math

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.datatypes import BYTE, contiguous

from .conftest import ALL_METHODS, SCHEDULERS, small_datatypes
from .reference.oracle import size, typemap
from .test_byte_oracle import Geometry, check

schedulers = st.sampled_from(sorted(SCHEDULERS))


def _disjoint(entries) -> bool:
    """No byte below offset 0 and none twice: MPI forbids overlap in a
    write's filetype and in a read's memtype."""
    end = 0
    for d, n in sorted(entries):
        if d < end:
            return False
        end = d + n
    return True


def _every_writer(view, sched, *, same_reader, **config):
    """One rank's ``view`` written by each method and read back by the
    same method, or by all six."""
    geometry = Geometry(1, lambda rank: view, {**config, "supports_locking": True})
    for writer in ALL_METHODS:
        readers = (writer,) if same_reader else ALL_METHODS
        check(f"random {view}", writer, readers, geometry=geometry, **SCHEDULERS[sched])


@given(small_datatypes(), schedulers, st.integers(1, 3), st.integers(0, 64))
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_filetype_roundtrip(filetype, sched, count, displacement):
    nbytes = size(filetype) * count
    assume(0 < nbytes <= 1 << 16)
    # no negative file offset, no overlapping filetype
    assume(_disjoint(typemap(filetype, count)))
    view = (displacement, filetype, contiguous(nbytes, BYTE), 1)
    _every_writer(view, sched, same_reader=True, n_servers=3, strip_size=32)


@given(small_datatypes(), small_datatypes(), schedulers)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_memtype_and_filetype(memtype, filetype, sched):
    """Noncontiguous memory AND file, sizes matched by construction."""
    msize, fsize = size(memtype), size(filetype)
    assume(msize and fsize)
    # tile the smaller type so both streams have equal length
    lcm = math.lcm(msize, fsize)
    mcount, fcount = lcm // msize, lcm // fsize
    assume(lcm <= 1 << 14 and mcount <= 64 and fcount <= 64)
    assume(_disjoint(typemap(memtype, mcount)) and _disjoint(typemap(filetype, fcount)))
    view = (0, contiguous(fcount, filetype), memtype, mcount)
    _every_writer(view, sched, same_reader=False, n_servers=2, strip_size=16)
