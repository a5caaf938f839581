"""Golden bit-identity pins of the staged pipeline.

The digests below were recorded from the repository state *before* the
staged-pipeline refactor (PR 4 HEAD), hashing every numeric field of the
``QSCResult`` the monolithic ``QuantumSpectralClustering.fit`` produced at
fixed seeds.  ``QSCPipeline.run`` (and the ``fit`` wrapper over it) must
reproduce them bit for bit: any change to stage order, RNG stream
spawning, or per-stage numerics fails here.
"""

import hashlib

import numpy as np
import pytest

from repro import QSCConfig, QSCPipeline, QuantumSpectralClustering
from repro.graphs import cyclic_flow_sbm, ensure_connected, mixed_sbm

#: case name -> digest recorded from the pre-refactor monolithic fit.
GOLDEN = {
    "analytic_shots": "3fcc7af5fa0ddcaa9225ea1a94282fef",
    "analytic_noiseless": "5275c063539b27bede93e30b50ac11de",
    "explicit_threshold": "929467a9f68b1d7e1f6ec66d17146b24",
    "flow_chunked": "855837f0e2371fa67f43fd3a1f0d1d20",
    "auto_k": "91919ff5fa8d406486ffa12e7db32759",
    "circuit": "25b724ec53256090a37a64d2ee5518e1",
}

#: case name -> digest of the same analytic case under
#: ``spectral_engine="v3"`` (the graph block solved by LAPACK's MRRR
#: driver, the ``QSCConfig`` default), recorded when the engine landed.
#: v3 changes bits, not labels: these differ from GOLDEN only by rounding
#: (the tolerance contract lives in tests/core/test_spectral_engine.py).
GOLDEN_V3 = {
    "analytic_shots": "0f00dc97bcee218fc44e6b380a048f2f",
    "analytic_noiseless": "c2463b4fc5d73270dd34974e57b0c97c",
    "explicit_threshold": "91600c0692ce01b89a1655945a5d97a6",
    "flow_chunked": "491aa222c621bdac25f10cf9b58481f9",
    "auto_k": "0995ed32a6a405ec9939ffecc45cde58",
}


def result_digest(result) -> str:
    """Checksum of every numeric output field of a ``QSCResult``."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(result.labels, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.embedding, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(result.row_norms, dtype=np.float64).tobytes())
    h.update(
        np.ascontiguousarray(result.eigenvalue_histogram, dtype=np.float64).tobytes()
    )
    h.update(np.float64(result.threshold).tobytes())
    h.update(np.ascontiguousarray(result.accepted_bins, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.qmeans.centroids, dtype=np.float64).tobytes())
    h.update(np.float64(result.qmeans.inertia).tobytes())
    return h.hexdigest()


def build_case(name, engine="v1"):
    """(graph, num_clusters, config) of one golden case.

    The analytic cases run the byte-stable ``spectral_engine="v1"`` the
    digests were recorded under unless ``engine`` says otherwise; the
    circuit case has no engine knob.
    """
    if name in ("analytic_shots", "analytic_noiseless", "explicit_threshold"):
        graph, _ = mixed_sbm(40, 2, p_intra=0.5, p_inter=0.05, seed=11)
        ensure_connected(graph, seed=11)
        config = {
            "analytic_shots": QSCConfig(
                precision_bits=6, shots=512, seed=5, spectral_engine=engine
            ),
            "analytic_noiseless": QSCConfig(
                precision_bits=7, shots=0, seed=6, spectral_engine=engine
            ),
            "explicit_threshold": QSCConfig(
                eigenvalue_threshold=0.4, shots=128, seed=7, spectral_engine=engine
            ),
        }[name]
        return graph, 2, config
    if name == "flow_chunked":
        graph, _ = cyclic_flow_sbm(36, 3, density=0.3, direction_strength=0.95, seed=2)
        ensure_connected(graph, seed=2)
        return graph, 3, QSCConfig(
            precision_bits=7,
            shots=256,
            readout_chunk_size=7,
            seed=8,
            spectral_engine=engine,
        )
    if name == "auto_k":
        graph, _ = mixed_sbm(36, 3, p_intra=0.7, p_inter=0.02, seed=3)
        ensure_connected(graph, seed=3)
        return graph, "auto", QSCConfig(
            precision_bits=7,
            shots=256,
            histogram_shots=16384,
            seed=3,
            spectral_engine=engine,
        )
    if name == "circuit":
        graph, _ = mixed_sbm(10, 2, p_intra=0.8, p_inter=0.05, seed=4)
        ensure_connected(graph, seed=4)
        return graph, 2, QSCConfig(
            backend="circuit", precision_bits=5, shots=256, seed=9
        )
    raise AssertionError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_matches_pre_refactor_fit(name):
    graph, k, config = build_case(name)
    result = QSCPipeline(k, config).run(graph)
    assert result_digest(result) == GOLDEN[name]


@pytest.mark.parametrize("name", ["analytic_shots", "auto_k"])
def test_fit_wrapper_matches_pipeline(name):
    graph, k, config = build_case(name)
    assert result_digest(
        QuantumSpectralClustering(k, config).fit(graph)
    ) == GOLDEN[name]


@pytest.mark.parametrize("chunk", [2, 5, 7, 16])
def test_readout_chunking_keeps_the_golden_digest(chunk):
    """``readout_chunk_size`` bounds peak memory only: a chunking that
    leaves no one-row block lands on the unchunked golden digest (a
    one-row block differs by float rounding; see ``core/readout.py``)."""
    graph, k, config = build_case("analytic_shots")
    assert graph.num_nodes % chunk != 1
    result = QSCPipeline(k, config.with_updates(readout_chunk_size=chunk)).run(graph)
    assert result_digest(result) == GOLDEN["analytic_shots"]


def test_resumed_run_matches_golden(tmp_path):
    """A ``resume_from="readout"`` run still lands on the golden digest."""
    graph, k, config = build_case("analytic_shots")
    QSCPipeline(k, config).run(graph, save_stages=tmp_path)
    resumed = QSCPipeline(k, config).run(
        graph, resume_from="readout", stages_dir=tmp_path
    )
    assert result_digest(resumed) == GOLDEN["analytic_shots"]


@pytest.mark.parametrize("name", sorted(GOLDEN_V3))
def test_v3_engine_matches_its_golden(name):
    graph, k, config = build_case(name, engine="v3")
    assert result_digest(QSCPipeline(k, config).run(graph)) == GOLDEN_V3[name]


def test_circuit_case_ignores_the_spectral_engine():
    """The circuit backend always simulates the padded register."""
    graph, k, config = build_case("circuit")
    for engine in ("v1", "v3"):
        result = QSCPipeline(k, config.with_updates(spectral_engine=engine)).run(graph)
        assert result_digest(result) == GOLDEN["circuit"]
