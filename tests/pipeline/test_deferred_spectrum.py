"""A served laplacian stage defers its spectrum.

The rebuilt analytic backend reads the eigendecomposition and QPE kernel
only when something uses them, so a fully served run does no spectral
work at all, while every consumer of the spectrum — a computed
downstream stage or diagnostics after the fit — still sees the cold
run's bits.
"""

import pytest
from test_golden import GOLDEN, build_case, result_digest
from test_pipeline import CONFIG, results_equal
from test_read_through import delete_stage_entry, graph, sources  # noqa: F401

from repro import QSCPipeline, api
from repro.core.qpe_engine import spectral_cache_stats
from repro.experiments.fig2_precision_sweep import _filter_diagnostics
from repro.pipeline import STAGE_NAMES
from repro.store import get_store


def fresh_worker() -> None:
    """Drop the memory tier and zero the counters: only the disk is left."""
    get_store().clear_memory()


class TestServedRun:
    def test_warm_cluster_does_no_spectral_work(self, graph, tmp_path, pristine_store):
        store_dir = tmp_path / "cas"
        cold = api.cluster(graph, 2, config=CONFIG, store_dir=str(store_dir))
        fresh_worker()
        warm = api.cluster(graph, 2, config=CONFIG, store_dir=str(store_dir))
        assert sources(warm) == ["store"] * len(STAGE_NAMES)
        stats = spectral_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0, stats
        assert results_equal(cold, warm)

    def test_served_backend_loads_its_spectrum_on_first_use(self, graph, tmp_store):
        QSCPipeline(2, CONFIG).run(graph)
        fresh_worker()
        pipeline = QSCPipeline(2, CONFIG)
        pipeline.run(graph)
        backend = pipeline.state["backend"]
        assert spectral_cache_stats()["hits"] == 0
        backend.eigenvalues
        assert spectral_cache_stats()["hits"] == 2  # decomposition + kernel
        backend.eigenvalues
        assert spectral_cache_stats()["hits"] == 2  # loaded once


class TestConsumersOfAServedSpectrum:
    @pytest.mark.parametrize("engine", ["v1", "v3"])
    def test_fig2_diagnostics_after_a_served_fit(self, graph, tmp_store, engine):
        config = CONFIG.with_updates(spectral_engine=engine)
        cold = QSCPipeline(2, config)
        cold_result = cold.run(graph)
        expected = _filter_diagnostics(cold.state["backend"], 2, cold_result.threshold)
        fresh_worker()
        warm = QSCPipeline(2, config)
        warm_result = warm.run(graph)
        assert sources(warm_result) == ["store"] * len(STAGE_NAMES)
        served = _filter_diagnostics(warm.state["backend"], 2, warm_result.threshold)
        assert served == expected

    def test_readout_after_a_served_laplacian(self, tmp_store):
        graph, k, config = build_case("analytic_shots")
        QSCPipeline(k, config).run(graph)
        for name in STAGE_NAMES[2:]:
            delete_stage_entry(tmp_store, graph, config, k, name)
        fresh_worker()
        result = QSCPipeline(k, config).run(graph)
        assert sources(result) == ["store", "store"] + ["computed"] * 3
        assert result_digest(result) == GOLDEN["analytic_shots"]
        # The readout loaded the decomposition and the kernel once each.
        stats = spectral_cache_stats()
        assert stats["hits"] == 2 and stats["misses"] == 0, stats
