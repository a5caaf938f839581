"""Toy-size tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They test the benchmark, not the program it measures, so the tier-1 suite
(``testpaths = ["tests"]``) does not collect them.
"""

import copy
import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing, workloads  # noqa: E402
from perfbench.spread import spread  # noqa: E402
from repro.pipeline import stages  # noqa: E402

#: A fig1 sweep small enough to run in milliseconds.
TINY_FIG1 = {
    "trials": 1,
    "strengths": (0.9,),
    "num_nodes": 18,
    "num_clusters": 2,
    "shots": 64,
    "precision_bits": 5,
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def nested_trace():
    """One op: 1 s alone, then a pipeline span holding a q-means span."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.op(0):
        clock.advance(1.0)
        outer = tracer.begin("pipeline")
        clock.advance(0.5)
        inner = tracer.begin("qmeans")
        clock.advance(2.0)
        tracer.end(inner)
        clock.advance(0.25)
        tracer.end(outer)
        clock.advance(0.5)
    return tracer


def test_summary_math():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert harness.ops_per_s(6, 3.0) == 2.0
    assert harness.error_rate(1, 4) == 0.25
    assert harness.success_rate(1, 4) == 0.75
    assert harness.success_rate(0, 7) == 1.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        harness.median([])
    with pytest.raises(ValueError):
        harness.error_rate(0, 0)
    with pytest.raises(ValueError):
        harness.error_rate(5, 4)
    with pytest.raises(ValueError):
        harness.ops_per_s(1, 0.0)


def test_self_times_subtract_nested_children():
    entry = tracing.op_breakdown(nested_trace().spans)[0]
    assert entry["total_s"] == 4.25
    assert entry["layers"] == {
        "unattributed_s": 1.5,
        "pipeline.self_s": 0.75,
        "qmeans.s": 2.0,
    }
    assert sum(entry["layers"].values()) == pytest.approx(entry["total_s"])


def test_overlapping_children_are_rejected():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.op(0):
        clock.advance(1.0)
        tracer.add_span("service.submit", 0.0, 0.8)
        tracer.add_span("service.queue", 0.5, 1.0)
    with pytest.raises(ValueError, match="overlap"):
        tracing.op_breakdown(tracer.spans)


def test_layer_metrics_cover_every_per_layer_name():
    metrics = tracing.layer_metrics(nested_trace(), untraced_p50=4.0, import_s=0.5)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["qmeans.s"] == 2.0
    assert metrics["unattributed_s"] == 1.5
    assert metrics["trace_overhead_s"] == pytest.approx(0.25)
    assert metrics["import.repro_s"] == 0.5


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(harness.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def toy_cluster(tmp_path):
    workload = workloads.ClusterPadded(1, 2, tmp_path, nodes=48, clusters=2, graphs=2)
    workload.setup()
    return workload


def test_cluster_check_rejects_tampered_results(toy_cluster):
    toy_cluster.before_op(0)
    fits = toy_cluster.op(0, None)
    assert toy_cluster.check(0, toy_cluster.summarize(0, fits)) is None
    short = [fits[0], dataclasses.replace(fits[1], labels=fits[1].labels[:-1])]
    assert "labels" in toy_cluster.check(1, toy_cluster.summarize(1, short))
    merged = [dataclasses.replace(fits[0], labels=np.zeros_like(fits[0].labels))]
    assert "ARI" in toy_cluster.check(1, toy_cluster.summarize(1, merged + fits[1:]))
    other = dataclasses.replace(fits[1], threshold=fits[1].threshold + 1.0)
    problem = toy_cluster.check(1, toy_cluster.summarize(1, [fits[0], other]))
    assert "first op" in problem


def test_cluster_ops_repeat_the_same_graphs_in_seeded_orders(toy_cluster):
    orders = {
        tuple(workloads.shuffled(1, range(8), "op", index)) for index in range(4)
    }
    assert len(orders) > 1
    toy_cluster.before_op(1)
    first = toy_cluster.summarize(0, toy_cluster.op(0, None))
    toy_cluster.before_op(1)
    second = toy_cluster.summarize(1, toy_cluster.op(1, None))
    assert [fit["labels"] for fit in first] == [48, 48]
    assert toy_cluster.same(first, second)


def test_sweep_check_rejects_tampered_records():
    artifacts = {"fig1": workloads.run_sweep("fig1", **TINY_FIG1)}
    expected = workloads.panel_records(artifacts)
    problem = workloads.check_artifacts("op 1", artifacts, expected, "the cold pass")
    assert problem is None
    tampered = copy.deepcopy(artifacts)
    tampered["fig1"]["records"][0]["ari"] = 0.125
    problem = workloads.check_artifacts("op 1", tampered, expected, "the cold pass")
    assert "differ" in problem
    broken = copy.deepcopy(artifacts)
    broken["fig1"]["schema"] = "not-a-schema"
    problem = workloads.check_artifacts("op 1", broken, expected, "the cold pass")
    assert "invalid" in problem


def test_served_check_rejects_tampered_jobs():
    events = [{"event": "started"}, {"event": "artifact", "source": "store"}]
    artifact = workloads.run_sweep("fig1", **TINY_FIG1)
    served = workloads.served_summary(events + [{"event": "completed"}], artifact)
    expected = copy.deepcopy(artifact["records"])
    assert served["source"] == "store"
    assert workloads.check_served("op 1", served, expected) is None
    failed = dict(served, terminal="failed")
    assert "ended" in workloads.check_served("op 1", failed, expected)
    computed = dict(served, source="computed")
    problem = workloads.check_served("op 1", computed, expected)
    assert "not read from the store" in problem
    tampered = copy.deepcopy(served)
    tampered["artifact"]["records"][0]["ari"] = 0.125
    assert "differ" in workloads.check_served("op 1", tampered, expected)


def test_traced_op_equals_untraced_op(toy_cluster):
    toy_cluster.before_op(0)
    untraced = toy_cluster.summarize(0, toy_cluster.op(0, None))
    original = stages.hermitian_laplacian
    tracer = tracing.Tracer()
    toy_cluster.before_op(0)
    with tracing.instrumented(tracer):
        assert stages.hermitian_laplacian is not original
        with tracer.op(0):
            result = toy_cluster.op(0, tracer)
    assert stages.hermitian_laplacian is original
    assert toy_cluster.same(untraced, toy_cluster.summarize(0, result))
    layers = tracing.op_breakdown(tracer.spans)[0]["layers"]
    assert layers["qmeans.s"] > 0
    assert layers["graphs.laplacian_s"] > 0
    assert tracer.counts[0]["pipeline.fingerprint_calls"] == 2 * 5
    assert tracer.counts[0]["readout.rows"] == 2 * 48
