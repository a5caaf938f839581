"""The ``repro.api`` facade: ``cluster`` keyword fields (unknown names are
typed errors), ``run_experiment``'s store and ``connect``'s endpoint form."""

import pytest

from repro import api
from repro.core import QSCConfig
from repro.exceptions import ClusteringError, ServiceError
from repro.graphs import ensure_connected, mixed_sbm


@pytest.fixture(scope="module")
def graph():
    graph, _ = mixed_sbm(16, 2, p_intra=0.8, p_inter=0.05, seed=0)
    ensure_connected(graph, seed=0)
    return graph


@pytest.mark.parametrize(
    "name",
    [
        "bogus",
        "draw_threads",
        "generator_version",
        "readout_shards",
        "shard_timeout",
        "shard_retries",
        "shard_failure_mode",
        "shard_workers",
        "normalization",
    ],
)
def test_unknown_quantum_field_is_a_typed_error(graph, name):
    with pytest.raises(ClusteringError) as error:
        api.cluster(graph, 2, **{name: 2})
    message = str(error.value)
    assert repr(name) in message
    assert "precision_bits" in message  # the accepted fields are listed


def test_unknown_fields_are_named_together(graph):
    with pytest.raises(ClusteringError, match=r"\['bogus', 'draw_threads'\]"):
        api.cluster(graph, 2, config=QSCConfig(), draw_threads=2, bogus=1)


def test_known_fields_still_override_the_config(graph):
    result = api.cluster(graph, 2, shots=0, precision_bits=5, seed=3)
    assert result.labels.shape == (16,)


def test_unknown_classical_field_is_a_typed_error(graph):
    with pytest.raises(ClusteringError, match="bogus"):
        api.cluster(graph, 2, method="classical", bogus=1)


def test_the_classical_method_keeps_its_normalization(graph):
    symmetric = api.cluster(graph, 2, method="classical", normalization="symmetric")
    unnormalized = api.cluster(graph, 2, method="classical", normalization="none")
    assert symmetric.labels.shape == unnormalized.labels.shape == (16,)


def disk_state(root) -> dict:
    """Every file under ``root`` with its size and modification time."""
    return {
        path: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


def test_a_cluster_without_store_dir_uses_no_disk_store(
    graph, tmp_path, pristine_store
):
    """A config without ``store_dir`` names no store, whatever an earlier
    run in the same process attached."""
    store = tmp_path / "store"
    keyed = api.cluster(graph, 2, store_dir=str(store))
    before = disk_state(store)
    assert before
    plain = api.cluster(graph, 2)
    assert [row["source"] for row in plain.profile] == ["computed"] * 5
    assert sum(row["disk_hits"] for row in plain.profile) == 0
    assert disk_state(store) == before
    assert (plain.labels == keyed.labels).all()


def test_a_sweep_without_store_dir_uses_no_disk_store(tmp_path, pristine_store):
    """Graph, baseline, stage and spectral entries all follow the config."""
    overrides = dict(
        strengths=[0.9], num_nodes=18, num_clusters=2, shots=64, precision_bits=5
    )
    store = tmp_path / "store"
    keyed = api.run_experiment("fig1", trials=1, store_dir=str(store), **overrides)
    before = disk_state(store)
    plain = api.run_experiment("fig1", trials=1, **overrides)
    assert plain.store["disk_hits"] == 0
    assert all(entry["loaded"] == 0 for entry in plain.profile.values())
    assert disk_state(store) == before
    assert plain.records == keyed.records


def test_run_experiment_keeps_a_local_store(tmp_path, pristine_store):
    """Only a served job is refused a ``store_dir``; the local facade reads
    and fills the store it is given, with the records of a storeless run."""
    overrides = dict(
        strengths=[0.9], num_nodes=18, num_clusters=2, shots=64, precision_bits=5
    )
    store = tmp_path / "store"
    stored = api.run_experiment("fig1", trials=1, store_dir=str(store), **overrides)
    assert any(path.is_file() for path in store.rglob("*"))
    assert stored.records == api.run_experiment("fig1", trials=1, **overrides).records


def test_connect_reads_host_and_port():
    client = api.connect("127.0.0.1:8831", token="s3cret", timeout=5.0)
    assert (client.host, client.port) == ("127.0.0.1", 8831)
    assert (client.token, client.timeout) == ("s3cret", 5.0)


def test_connect_defaults_the_port():
    client = api.connect("localhost")
    assert (client.host, client.port) == ("localhost", api.DEFAULT_PORT)


def test_connect_refuses_a_non_numeric_port():
    with pytest.raises(ServiceError, match="bad port"):
        api.connect("localhost:http")


@pytest.mark.parametrize(
    "url", ["http://127.0.0.1:8831", "https://example.invalid:443"]
)
def test_connect_refuses_a_url(url):
    """The server speaks JSON lines on plain TCP: no scheme is dropped."""
    with pytest.raises(ServiceError, match="JSON lines on a bare host:port"):
        api.connect(url)
