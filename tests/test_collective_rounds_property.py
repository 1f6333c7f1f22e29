"""Round-windowed expansion property: composite == monolithic, byte-exact.

Collective datatype I/O cuts every rank's packed stream at
:func:`~repro.mpiio.methods.collective.round_cuts` and lets servers
expand each ``[cut, cut)`` window independently (through the expansion
cache).  The method is only correct if the concatenation of those
window expansions maps every stream byte to exactly the same physical
file byte as one monolithic expansion of the whole view — for any
datatype, layout, displacement and round geometry.  Hypothesis drives
that equivalence here, on both the vectorized core and the per-block
references of ``tests/reference/core.py`` (``reference_core`` fixture).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataloops import build_dataloop
from repro.mpiio.methods.collective import round_cuts
from repro.pvfs.distribution import Distribution
from repro.pvfs.expand_cache import expand_window

from .conftest import small_datatypes


def byte_map(split, base=0):
    """(stream position, physical offset) for every byte of a split."""
    offs = np.asarray(split.regions.offsets, dtype=np.int64)
    lens = np.asarray(split.regions.lengths, dtype=np.int64)
    spos = np.asarray(split.stream_pos, dtype=np.int64)
    if len(lens) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    stream = np.concatenate(
        [s + np.arange(n) for s, n in zip(spos, lens)]
    ) + base
    physical = np.concatenate([o + np.arange(n) for o, n in zip(offs, lens)])
    return stream, physical


# ----------------------------------------------------------------------
# round_cuts structural invariants
# ----------------------------------------------------------------------
@given(st.integers(0, 1 << 16), st.integers(1, 1 << 12))
@settings(deadline=None)
def test_round_cuts_invariants(total, round_bytes):
    cuts = round_cuts(total, round_bytes)
    assert cuts[0] == 0
    assert cuts[-1] == total
    steps = np.diff(cuts)
    assert (steps > 0).all() or total == 0
    # no round ever exceeds the configured round size
    assert total == 0 or steps.max() <= round_bytes
    # a stream longer than the cascade ends in a drain round of 1/32
    if total > 2 * round_bytes:
        assert steps[-1] == max(1, round_bytes >> 5)


@pytest.mark.parametrize("round_bytes", [0, -1])
def test_round_cuts_rejects_empty_rounds(round_bytes):
    # a zero round size used to cut nothing off the stream forever
    with pytest.raises(ValueError, match="round_bytes"):
        round_cuts(10, round_bytes)


# ----------------------------------------------------------------------
# composite == monolithic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scalar", [False, True], ids=["vector", "scalar"])
@given(
    small_datatypes(),
    st.integers(1, 4),  # n_servers
    st.sampled_from([8, 16, 64]),  # strip_size
    st.integers(0, 256),  # displacement
    st.integers(1, 5),  # tiled instances
    st.data(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_windowed_equals_monolithic(
    reference_core, scalar, t, n_servers, strip, disp, tiles, data
):
    if t.size == 0 or t.size * tiles > 1 << 12:
        return
    flat = t.flatten(tiles)
    if flat.count and int(flat.offsets.min()) + disp < 0:
        return
    size = t.size * tiles
    round_bytes = data.draw(st.integers(1, 2 * size), label="round_bytes")
    batch = data.draw(st.sampled_from([16, 64, 65536]), label="batch")

    loop = build_dataloop(t)
    dist = Distribution(n_servers, strip)
    cuts = round_cuts(size, round_bytes)

    with reference_core() if scalar else contextlib.nullcontext():
        for server in range(n_servers):
            mono, _ = expand_window(
                loop, tiles, disp, 0, size, dist, server, batch
            )
            want_s, want_p = byte_map(mono)
            got_s, got_p = [], []
            for r in range(len(cuts) - 1):
                win, _ = expand_window(
                    loop, tiles, disp, cuts[r], cuts[r + 1], dist, server,
                    batch,
                )
                s, p = byte_map(win, base=cuts[r])
                got_s.append(s)
                got_p.append(p)
            got_s = np.concatenate(got_s) if got_s else want_s[:0]
            got_p = np.concatenate(got_p) if got_p else want_p[:0]
            # same bytes, same placement — ordering within the stream
            # is canonical on both sides after sorting by stream pos
            order_w = np.argsort(want_s, kind="stable")
            order_g = np.argsort(got_s, kind="stable")
            assert np.array_equal(want_s[order_w], got_s[order_g]), server
            assert np.array_equal(want_p[order_w], got_p[order_g]), server
