"""Cost model invariants and helpers."""

import dataclasses

import pytest

from repro.simulation import CostModel


class TestCostModel:
    def test_frozen(self):
        c = CostModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.nic_bandwidth = 1.0

    def test_paper_testbed_constants(self):
        """The fixed (non-tuned) constants from §4.1."""
        c = CostModel()
        assert c.nic_bandwidth == 12.5e6  # 100 Mbit/s
        assert c.listio_pair_bytes == 12  # 9 KB / 768 pairs

    def test_read_processing_dearer_than_write(self):
        """§4.3: source-side list processing is on the critical path,
        sink-side is hidden — the model must keep that asymmetry."""
        c = CostModel()
        assert c.server_region_read_cost > c.server_region_write_cost

    def test_mpi_slower_than_wire(self):
        """§2.3: MPI data movement is not faster than the I/O path."""
        c = CostModel()
        assert c.mpi_bandwidth < c.nic_bandwidth

    def test_direct_factor_reduces(self):
        c = CostModel()
        assert 0 < c.direct_region_factor < 1
