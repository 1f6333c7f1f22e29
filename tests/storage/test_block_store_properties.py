"""``BlockStore`` against a dense ``bytearray`` model.

Random write/read sequences over small chunk sizes, so that runs
straddle one and several chunk edges, arrive unsorted and leave holes;
the model is a flat byte array per handle and shares no code with the
store or with :func:`repro.regions.core.copy_runs`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.regions import Regions
from repro.storage import BlockStore

SPACE = 400


class DenseModel:
    """One flat zero-filled byte array per handle."""

    def __init__(self):
        self.files = {}
        self.sizes = {}
        self.bytes_read = self.bytes_written = 0

    def write(self, handle, pairs, data):
        image = self.files.setdefault(handle, bytearray(SPACE))
        pos = 0
        for off, ln in pairs:
            image[off : off + ln] = bytes(data[pos : pos + ln])
            pos += ln
            self.sizes[handle] = max(self.sizes.get(handle, 0), off + ln)
        self.bytes_written += pos

    def read(self, handle, pairs):
        image = self.files.get(handle, bytes(SPACE))
        out = b"".join(bytes(image[off : off + ln]) for off, ln in pairs)
        self.bytes_read += len(out)
        return np.frombuffer(out, dtype=np.uint8)


@st.composite
def run_pairs(draw, disjoint):
    """A run list inside ``[0, SPACE)``; disjoint ones in any order."""
    n = draw(st.integers(0, 12))
    uniform = draw(st.booleans())
    fixed = draw(st.integers(1, 70))
    lengths = [fixed if uniform else draw(st.integers(1, 70)) for _ in range(n)]
    if not disjoint:
        return [(draw(st.integers(0, SPACE - ln)), ln) for ln in lengths]
    pairs, cursor = [], 0
    for ln in lengths:
        cursor += draw(st.integers(0, 20))
        if cursor + ln > SPACE:
            break
        pairs.append((cursor, ln))
        cursor += ln
    return draw(st.permutations(pairs))


@st.composite
def programs(draw):
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        handle = draw(st.integers(1, 3))
        if draw(st.booleans()):
            pairs = run_pairs(disjoint=draw(st.booleans()))
            ops.append(("write", handle, draw(pairs), draw(st.integers(0, 255))))
        else:
            ops.append(("read", handle, draw(run_pairs(disjoint=False)), 0))
    return ops


class TestAgainstDenseModel:
    @given(st.integers(1, 64), programs())
    @settings(max_examples=400, deadline=None)
    def test_random_write_read_sequences(self, chunk_size, ops):
        store, model = BlockStore(chunk_size=chunk_size), DenseModel()
        for op, handle, pairs, seed in ops:
            regions = Regions.from_pairs(pairs)
            if op == "write":
                data = np.random.default_rng(seed).integers(
                    0, 256, regions.total_bytes, dtype=np.uint8
                )
                store.write_regions(handle, regions, data)
                model.write(handle, pairs, data)
            else:
                got = store.read_regions(handle, regions)
                assert got.dtype == np.uint8
                assert np.array_equal(got, model.read(handle, pairs))
        whole = [(0, SPACE)]
        for handle in (1, 2, 3, 99):
            # the full image, holes and never-written handles included
            assert np.array_equal(
                store.read_regions(handle, Regions.from_pairs(whole)),
                model.read(handle, whole),
            )
            assert store.local_size(handle) == model.sizes.get(handle, 0)
        assert store.bytes_read == model.bytes_read
        assert store.bytes_written == model.bytes_written
        assert store.handles() == sorted(model.files)

    @given(st.integers(1, 64), run_pairs(disjoint=False), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_stream_size_mismatch(self, chunk_size, pairs, delta):
        regions = Regions.from_pairs(pairs)
        size = regions.total_bytes + delta
        if delta == 0 or size < 0:
            return
        store = BlockStore(chunk_size=chunk_size)
        with pytest.raises(ValueError):
            store.write_regions(1, regions, np.ones(size, dtype=np.uint8))
        assert store.bytes_written == 0
        assert not store.read_regions(1, Regions.single(0, SPACE)).any()


class TestDefaultChunk:
    def test_runs_around_the_256k_edge(self):
        edge = 1 << 18
        store = BlockStore()
        assert store.chunk_size == edge
        pairs = [
            (edge - 4096, 4096),      # ends exactly on the edge
            (edge, 4096),             # starts exactly on it
            (2 * edge - 100, 200),    # straddles the next one
            (3 * edge - 1, 2 * edge + 2),   # spans three chunks
            (10, 4096),               # unsorted: back in chunk 0
        ]
        regions = Regions.from_pairs(pairs)
        data = np.random.default_rng(5).integers(
            0, 256, regions.total_bytes, dtype=np.uint8
        )
        store.write_regions(1, regions, data)
        assert np.array_equal(store.read_regions(1, regions), data)
        assert store.local_size(1) == 5 * edge + 1
        image = np.zeros(6 * edge, dtype=np.uint8)
        pos = 0
        for off, ln in pairs:
            image[off : off + ln] = data[pos : pos + ln]
            pos += ln
        got = store.read_regions(1, Regions.single(0, image.size))
        assert np.array_equal(got, image)

    def test_overlapping_writes_later_run_wins(self):
        store = BlockStore(chunk_size=8)
        regions = Regions.from_pairs([(0, 12), (20, 12), (6, 4), (40, 12)])
        store.write_regions(1, regions, np.arange(1, 41, dtype=np.uint8))
        got = store.read_regions(1, Regions.single(0, 12)).tolist()
        assert got == [1, 2, 3, 4, 5, 6, 25, 26, 27, 28, 11, 12]
