"""``dtype-cache`` builds its own file system: each phase ends quiescent."""

import pytest

from repro.bench import dtype_cache
from repro.pvfs import PVFS


@pytest.mark.parametrize("cache_on", [True, False], ids=["cache-on", "cache-off"])
def test_every_phase_run_checks_quiescence(monkeypatch, cache_on):
    real, checked = PVFS.assert_quiescent, []

    def counted(fs):
        checked.append(fs)
        real(fs)

    monkeypatch.setattr(PVFS, "assert_quiescent", counted)
    phases = dtype_cache.CachePhase.quick()
    for phase in phases:
        assert dtype_cache.run_phase(phase, cache_on)["sim_s"] > 0
    assert len(checked) == len(phases) == len(set(map(id, checked)))
