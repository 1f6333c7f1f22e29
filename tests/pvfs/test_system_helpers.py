"""PVFS system façade helpers and configuration validation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import CostModel, Environment


class TestConfigValidation:
    def test_defaults_are_paper(self):
        cfg = PVFSConfig()
        assert cfg.n_servers == 16
        assert cfg.strip_size == 65536
        assert cfg.list_io_max_regions == 64
        assert not cfg.supports_locking

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_servers": 0},
            {"strip_size": 0},
            {"server_threads": 0},
            {"list_io_max_regions": 0},
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(ValueError):
            PVFSConfig(**kw)

    def test_config_or_overrides_not_both(self):
        env = Environment()
        with pytest.raises(ValueError):
            PVFS(env, config=PVFSConfig(), n_servers=4)


class TestSystemHelpers:
    def test_write_direct_read_back(self, rng):
        env = Environment()
        fs = PVFS(env, n_servers=3, strip_size=32)
        meta = fs.metadata.create_now("/d")
        data = rng.integers(0, 255, 500, dtype=np.uint8)
        fs.write_direct(meta.handle, 123, data)
        assert np.array_equal(fs.read_back(meta.handle, 123, 500), data)
        # helpers never advance the simulated clock
        assert env.now == 0.0

    def test_write_direct_spans_servers(self):
        env = Environment()
        fs = PVFS(env, n_servers=4, strip_size=16)
        meta = fs.metadata.create_now("/d")
        fs.write_direct(meta.handle, 0, np.arange(128, dtype=np.uint8))
        touched = [
            s.index for s in fs.servers if s.store.local_size(meta.handle)
        ]
        assert touched == [0, 1, 2, 3]

    def test_total_server_stats_shape(self):
        env = Environment()
        fs = PVFS(env, n_servers=2)
        stats = fs.total_server_stats()
        assert set(stats) == {
            "requests",
            "ops",
            "accesses_built",
            "regions_scanned",
            "bytes_read",
            "bytes_written",
            "disk_seeks",
        }
        assert all(v == 0 for v in stats.values())

    def test_clients_listing(self):
        env = Environment()
        fs = PVFS(env, n_servers=2)
        c1 = fs.client("n1")
        c2 = fs.client("n2", name="special")
        assert fs.clients == [c1, c2]
        assert c2.name == "special"

    def test_metadata_server_colocation(self):
        """I/O server 0's node doubles as the metadata server (§4.1)."""
        env = Environment()
        fs = PVFS(env, n_servers=4)
        assert fs.metadata.mailbox.name == "mgr"
        assert fs.metadata.mailbox.node is fs.servers[0].node
        assert fs.metadata.mailbox.node.name == "ios0"

    def test_shared_network_across_systems_rejected_names(self):
        """Two PVFS instances on one network need distinct mailboxes."""
        env = Environment()
        fs1 = PVFS(env, n_servers=2)
        with pytest.raises(ValueError, match="duplicate mailbox"):
            PVFS(env, net=fs1.net, n_servers=2)

    def test_custom_costs_threaded_through(self):
        env = Environment()
        costs = replace(CostModel(), latency=0.5)
        fs = PVFS(env, costs=costs, n_servers=2)
        assert fs.net.costs.latency == 0.5
        assert fs.servers[0].disk.costs.latency == 0.5
