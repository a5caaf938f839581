"""``repro.api.cluster`` keyword fields: unknown names are typed errors."""

import pytest

from repro import api
from repro.core import QSCConfig
from repro.exceptions import ClusteringError
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
