"""Benchmark — a served fig1 job vs the direct ``SweepRunner`` call.

``repro serve`` is a transport: the job's sweep runs through exactly the
code path the direct call takes, so the only cost the service may add is
bookkeeping — socket round trips, event assembly and streaming, and (at
the default executor) the worker-process launch.  This module measures
that overhead at smoke scale and re-asserts the core guarantee alongside
it: the served artifact's records are bit-identical to the direct run's.

The number is recorded as data, not gated — service overhead is
dominated by process-launch latency, which varies too much across hosts
for a stable threshold.  The in-process executor keeps the measurement
about the transport, not about ``fork``.
"""

import time

import pytest

from repro.experiments.runner import SweepRunner, spec_from_job
from repro.service.supervisor import InlineJobExecutor
from repro.service import ServerThread

#: The tiny fig1 job the service tests use (tests/service/conftest.py):
#: one strength, 18 nodes, 64 shots — milliseconds per run.
SERVICE_JOB = {
    "experiment": "fig1",
    "trials": 1,
    "overrides": {
        "strengths": [0.9],
        "num_nodes": 18,
        "num_clusters": 2,
        "shots": 64,
        "precision_bits": 5,
    },
}


@pytest.mark.benchmark(group="service")
def test_bench_served_job_overhead(benchmark):
    """Round-trip a job through a live server; print the added cost."""
    start = time.perf_counter()
    direct = SweepRunner(spec_from_job(SERVICE_JOB), jobs=1).run().to_artifact()
    direct_seconds = time.perf_counter() - start

    with ServerThread(executor_factory=InlineJobExecutor) as server:
        client = server.client()

        def round_trip():
            submitted = client.submit(SERVICE_JOB)
            client.events(submitted["job"])  # full streamed transcript
            return client.artifact(submitted["job"])

        served = benchmark.pedantic(round_trip, rounds=3, iterations=1)
        served_seconds = benchmark.stats.stats.min

    assert served["records"] == direct["records"]
    overhead = served_seconds - direct_seconds
    print(
        f"fig1 smoke job: direct {direct_seconds:.3f}s, "
        f"served {served_seconds:.3f}s, "
        f"service overhead {overhead * 1000.0:.1f}ms"
    )
