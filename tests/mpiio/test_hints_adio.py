"""Hints validation and the ADIO method registry."""

import pytest

from repro.mpiio import Hints, METHODS
from repro.mpiio.adio import AccessMethod, get_method, register_method


class TestHints:
    def test_defaults_match_paper(self):
        h = Hints()
        assert h.cb_buffer_size == 4 * 1024 * 1024
        assert h.ind_rd_buffer_size == 4 * 1024 * 1024
        assert h.ind_wr_buffer_size == 4 * 1024 * 1024
        assert h.cb_nodes is None
        assert h.tp_sparse_method == "rmw"

    @pytest.mark.parametrize(
        "field", ["cb_buffer_size", "ind_rd_buffer_size", "ind_wr_buffer_size"]
    )
    def test_positive_buffers_enforced(self, field):
        with pytest.raises(ValueError):
            Hints(**{field: 0})

    def test_cb_nodes_validated(self):
        with pytest.raises(ValueError):
            Hints(cb_nodes=0)
        assert Hints(cb_nodes=4).cb_nodes == 4

    def test_tp_sparse_method_validated(self):
        # two-phase tests only != 'rmw' and == 'datatype_io': unchecked,
        # a typo would silently select the list-I/O sparse write
        with pytest.raises(ValueError, match="tp_sparse_method"):
            Hints(tp_sparse_method="bogus")
        for method in ("rmw", "list_io", "datatype_io"):
            assert Hints(tp_sparse_method=method).tp_sparse_method == method


class TestRegistry:
    def test_all_five_methods_registered(self):
        assert set(METHODS) >= {
            "posix",
            "data_sieving",
            "two_phase",
            "list_io",
            "datatype_io",
        }

    def test_only_two_phase_collective(self):
        assert METHODS["two_phase"].collective
        for name in ("posix", "data_sieving", "list_io", "datatype_io"):
            assert not METHODS[name].collective

    def test_get_method_unknown(self):
        with pytest.raises(KeyError, match="unknown access method"):
            get_method("carrier_pigeon")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_method(
                AccessMethod("posix", lambda op: None, lambda op: None)
            )

    def test_descriptions_present(self):
        for m in METHODS.values():
            assert m.description
