"""The benchmark's workloads: inputs from the seed, one op, its checks.

Each workload is a closed loop with one client.  The harness calls
``setup`` (timed, repeated), then per op index ``before_op`` (untimed),
``op`` (timed) and ``summarize`` (untimed; keeps only what the checks
need), and after the loop ``check``.  The same seed gives the same inputs
on every host, and each run does a fixed number of ops, so it does the
same work however fast the program is.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import socket
import zlib

import numpy as np

from repro import api
from repro.core.qpe_engine import clear_spectral_cache
from repro.exceptions import ExperimentError, ServiceError
from repro.experiments.runner import (
    SweepRunner,
    get_spec,
    spec_from_job,
    validate_artifact,
)
from repro.metrics import adjusted_rand_index
from repro.service import ServerThread
from repro.service.errors import error_from_payload
from repro.service.protocol import decode_line, encode_line
from repro.store import configure_store

#: The paper sweeps of a store-rerun unit, one trial per grid point at the
#: paper's pinned base seeds (the seeds are part of each artifact's
#: definition).  fig3 is left out: its records are wall-clock timings and
#: never repeat exactly.
PANEL = tuple(
    (name, {"trials": 1}) for name in ("fig1", "fig2", "fig4", "table1", "table2")
)
#: Clustering ops use a 600-node, 4-cluster mixed SBM: not a power of two,
#: so the QPE engine pads it to a 1024-dimensional register.
NODES = 600
CLUSTERS = 4
#: Graphs one cluster-padded op clusters, one after another.  Every op
#: does the same several seconds of work, so a run's median is not a
#: mixture of unequal graph costs.
OP_GRAPHS = 3
#: 600-node clusterings in every store-rerun unit.
UNIT_FITS = 2
#: Lowest ARI a clustering op may score against the planted partition.
ARI_FLOOR = 0.9
#: Seed of the fixed pool the clustering graphs come from.  q-means time
#: varies about 3x across 600-node graphs, so a workload seed that drew
#: different graphs would move ``op_s_p50`` by the luck of the draw; the
#: workload seed sets the order in which each op visits the graphs instead.
GRAPH_POOL_SEED = 2021
#: Fewest ops in a run, whatever ``--seconds`` asks for.
MIN_OPS = 3
#: A first clustering that loads every lazily imported code path; large
#: enough that ``setup_s`` is not at the mercy of timer-scale noise.
WARM_UP_NODES = 300
#: The small fig1 job every store-rerun unit submits to the job server.
#: The cold pass computes it in a worker process and publishes its
#: artifact; every op's re-submission is answered from the store.
SERVED_JOB = {
    "experiment": "fig1",
    "trials": 1,
    "overrides": {
        "strengths": [0.9],
        "num_nodes": 72,
        "base_seed": GRAPH_POOL_SEED,
    },
}


def ops_for(seconds: float, nominal_op_s: float) -> int:
    """Ops per run: about ``seconds`` of work at this commit's op time.

    The count is fixed per run, not read off a clock, so every run of a
    seed measures the same inputs whatever the program's speed.
    """
    return max(MIN_OPS, round(seconds / nominal_op_s))


def derive_seed(seed: int, *path) -> int:
    """A child of the workload seed for the input named by ``path``."""
    words = [seed % 2**32] + [zlib.crc32(str(part).encode()) for part in path]
    return int(np.random.SeedSequence(words).generate_state(1)[0] % 2**30)


def pool_graph(index: int, nodes: int, clusters: int):
    """Graph ``index`` of the fixed pool, with its planted labels."""
    return api.mixed_sbm(
        nodes,
        clusters,
        seed=derive_seed(GRAPH_POOL_SEED, "graph", index),
        generator_version="v2",
    )


def shuffled(seed: int, items, *path) -> list:
    """``items`` in the order the workload seed names for ``path``."""
    items = list(items)
    rng = np.random.default_rng(derive_seed(seed, "order", *path))
    return [items[position] for position in rng.permutation(len(items))]


def fit_summary(result, truth) -> dict:
    """What the checks need from a clustering: a digest of its outputs,
    its label count, and its ARI against the planted labels."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (
        result.labels,
        result.embedding,
        result.row_norms,
        result.eigenvalue_histogram,
        result.accepted_bins,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr(float(result.threshold)).encode())
    labels = np.asarray(result.labels)
    ari = adjusted_rand_index(truth, labels) if labels.shape == truth.shape else None
    return {"digest": digest.hexdigest(), "labels": int(labels.size), "ari": ari}


def check_fit(where: str, fit: dict, nodes: int) -> str | None:
    if fit["labels"] != nodes:
        return f"{where}: {fit['labels']} labels for {nodes} nodes"
    if fit["ari"] < ARI_FLOOR:
        return f"{where}: ARI {fit['ari']:.4f} is below the floor {ARI_FLOOR}"
    return None


def run_sweep(name: str, **overrides) -> dict:
    """One registered sweep, run serially, as its validated JSON artifact."""
    return SweepRunner(get_spec(name, **overrides), jobs=1).run().to_artifact()


def panel_records(artifacts: dict) -> dict:
    return {name: artifact["records"] for name, artifact in artifacts.items()}


def check_artifacts(where: str, artifacts: dict, expected: dict, source: str):
    for name, artifact in artifacts.items():
        try:
            validate_artifact(artifact)
        except ExperimentError as error:
            return f"{where}: the {name} artifact is invalid: {error}"
    differing = [
        name
        for name in expected
        if name not in artifacts or artifacts[name]["records"] != expected[name]
    ]
    if differing:
        return f"{where}: {', '.join(differing)} records differ from {source}"
    return None


def record_aris(artifacts: dict) -> list:
    return [
        record["ari"]
        for artifact in artifacts.values()
        for record in artifact["records"]
        if record["ari"] is not None
    ]


class Workload:
    """One closed-loop client driving ``ops`` ops after its set-up."""

    name = ""
    #: Op time at this commit on the reference host (see README.md); with
    #: ``--seconds`` it sets the fixed op count of a run.
    nominal_op_s = 1.0
    #: Set-up passes per timed run; ``setup_s`` is their median.  The first
    #: pass also pays for lazily loaded code, so short set-ups take more.
    setup_repeats = 3

    def __init__(self, seed: int, ops: int, work_dir):
        self.seed = seed
        self.ops = ops
        self.work_dir = pathlib.Path(work_dir)

    def setup(self) -> None:
        """Build the inputs and warm up (timed as ``setup_s``)."""

    def teardown(self) -> None:
        """Undo :meth:`setup` (between set-up repeats and at the end)."""

    def reset(self) -> None:
        """Return to the post-set-up state before a traced pass."""

    def before_op(self, index: int) -> None:
        # A fresh spectral cache per op: every op pays for its own spectra.
        clear_spectral_cache()

    def op(self, index: int, tracer):
        raise NotImplementedError

    def summarize(self, index: int, raw):
        return raw

    def check(self, index: int, output) -> str | None:
        """``None`` when the output is correct, else why it is not."""
        return None

    def same(self, first, second) -> bool:
        """Whether two summarized outputs are bit-for-bit the same result."""
        return first == second

    def ari_values(self, output) -> list:
        return []


class ClusterPadded(Workload):
    """A user clustering new 600-node graphs, each padded to dimension 1024.

    Every op clusters the same :data:`OP_GRAPHS` pool graphs, from scratch
    (the spectral cache is cleared first), in an order the workload seed
    sets per op; outputs are listed in pool order.
    """

    name = "cluster-padded"
    nominal_op_s = 5.3
    setup_repeats = 7

    def __init__(
        self, seed, ops, work_dir, nodes=NODES, clusters=CLUSTERS, graphs=OP_GRAPHS
    ):
        super().__init__(seed, ops, work_dir)
        self.nodes = nodes
        self.clusters = clusters
        self.count = graphs
        self.graphs: list = []
        self.first: list | None = None

    def setup(self) -> None:
        self.graphs = [
            pool_graph(index, self.nodes, self.clusters) for index in range(self.count)
        ]
        warm_up, _ = pool_graph("warm-up", WARM_UP_NODES, self.clusters)
        clear_spectral_cache()  # every pass clusters the warm-up from scratch
        api.cluster(warm_up, self.clusters)

    def op(self, index, tracer):
        fits = [None] * self.count
        for position in shuffled(self.seed, range(self.count), "op", index):
            fits[position] = api.cluster(self.graphs[position][0], self.clusters)
        return fits

    def summarize(self, index, fits):
        return [fit_summary(fit, truth) for fit, (_, truth) in zip(fits, self.graphs)]

    def check(self, index, output):
        where = f"op {index}"
        for position, fit in enumerate(output):
            problem = check_fit(f"{where} graph {position}", fit, self.nodes)
            if problem is not None:
                return problem
        # Every op repeats the same clusterings, so each must equal the first.
        if self.first is None:
            self.first = output
        elif not self.same(output, self.first):
            return f"{where}: clusterings differ from the run's first op"
        return None

    def same(self, first, second):
        return [fit["digest"] for fit in first] == [fit["digest"] for fit in second]

    def ari_values(self, output):
        return [fit["ari"] for fit in output]


class StoreRerun(Workload):
    """A fresh worker re-running a unit whose store a cold pass wrote.

    The unit runs the :data:`PANEL` sweeps and :data:`UNIT_FITS` clusterings
    in this process, then re-submits :data:`SERVED_JOB` to an in-process job
    server on the same store, which answers it from the store.
    """

    name = "store-rerun"
    nominal_op_s = 4.7

    def __init__(self, seed, ops, work_dir):
        super().__init__(seed, ops, work_dir)
        self.panel = shuffled(seed, PANEL)
        self.store_dir = self.work_dir / f"store-rerun-{os.getpid()}"
        self.graphs: list = []
        self.server: ServerThread | None = None
        self.client = None
        self.reference: dict | None = None
        self._direct: list | None = None

    def setup(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.graphs = [pool_graph(index, NODES, CLUSTERS) for index in range(UNIT_FITS)]
        self.server = ServerThread(store_dir=str(self.store_dir)).start()
        self.client = self.server.client()
        clear_spectral_cache()
        self.reference = self.summarize(None, self._unit(None))

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        configure_store(root=None)
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _unit(self, tracer):
        store = str(self.store_dir)
        artifacts = {
            name: run_sweep(name, store_dir=store, **overrides)
            for name, overrides in self.panel
        }
        fits = [
            api.cluster(graph, CLUSTERS, store_dir=store)
            for graph, _ in self.graphs
        ]
        return artifacts, fits, self._serve(SERVED_JOB, tracer)

    def op(self, index, tracer):
        return self._unit(tracer)

    def _serve(self, job, tracer) -> dict:
        """Submit ``job``, follow its events to the end, fetch its artifact."""
        if tracer is None:
            job_id = self.client.submit(job)["job"]
            events = self.client.events(job_id)
            return served_summary(events, self.client.artifact(job_id))
        clock = tracer.clock
        start = clock()
        job_id = self.client.submit(job)["job"]
        submitted = clock()
        arrivals = self._timed_events(job_id, clock)
        started = next(
            (at for at, event in arrivals if event["event"] == "started"), None
        )
        if started is None:
            raise ServiceError(f"job {job_id} never reported 'started'")
        tracer.add_span("service.submit", start, submitted)
        tracer.add_span("service.queue", submitted, started)
        tracer.add_span("service.run", started, arrivals[-1][0])
        fetch = clock()
        artifact = self.client.artifact(job_id)
        tracer.add_span("service.artifact", fetch, clock())
        return served_summary([event for _, event in arrivals], artifact)

    def _timed_events(self, job_id, clock) -> list:
        """The job's event stream, each event with its arrival time."""
        arrivals = []
        address = (self.server.host, self.server.port)
        with socket.create_connection(
            address, timeout=self.client.timeout
        ) as sock, sock.makefile("rwb") as stream:
            stream.write(encode_line({"op": "events", "job": job_id}))
            stream.flush()
            while True:
                raw = stream.readline()
                now = clock()
                if not raw:
                    raise ServiceError("event stream ended without a done marker")
                message = decode_line(raw)
                if "event" in message:
                    arrivals.append((now, message))
                elif not message.get("ok"):
                    raise error_from_payload(message)
                elif message.get("done"):
                    return arrivals

    def summarize(self, index, raw):
        artifacts, fits, served = raw
        return {
            "artifacts": artifacts,
            "fits": [
                fit_summary(fit, truth) for fit, (_, truth) in zip(fits, self.graphs)
            ],
            "served": served,
        }

    def check(self, index, output):
        where = f"op {index}"
        problem = check_artifacts(
            where,
            output["artifacts"],
            panel_records(self.reference["artifacts"]),
            "the cold set-up pass",
        )
        if problem is not None:
            return problem
        for position, (fit, cold) in enumerate(
            zip(output["fits"], self.reference["fits"])
        ):
            if fit["digest"] != cold["digest"]:
                return f"{where}: clustering {position} differs from the cold pass"
            problem = check_fit(f"{where} clustering {position}", fit, NODES)
            if problem is not None:
                return problem
        return check_served(where, output["served"], self.direct_records())

    def direct_records(self) -> list:
        """Records of :data:`SERVED_JOB` run directly through ``SweepRunner``."""
        if self._direct is None:
            runner = SweepRunner(spec_from_job(SERVED_JOB), jobs=1)
            self._direct = runner.run().to_artifact()["records"]
        return self._direct

    def same(self, first, second):
        return (
            panel_records(first["artifacts"]) == panel_records(second["artifacts"])
            and [fit["digest"] for fit in first["fits"]]
            == [fit["digest"] for fit in second["fits"]]
            and first["served"]["artifact"]["records"]
            == second["served"]["artifact"]["records"]
        )

    def ari_values(self, output):
        return (
            record_aris(output["artifacts"])
            + [fit["ari"] for fit in output["fits"]]
            + record_aris({"served": output["served"]["artifact"]})
        )


def served_summary(events: list, artifact: dict) -> dict:
    """What the checks need from a served job: how it ended, where its
    artifact came from (``store`` or ``computed``), and the artifact."""
    sources = [event.get("source") for event in events if event["event"] == "artifact"]
    return {
        "terminal": events[-1]["event"] if events else None,
        "source": sources[-1] if sources else None,
        "artifact": artifact,
    }


def check_served(where: str, served: dict, expected: list) -> str | None:
    if served["terminal"] != "completed":
        return f"{where}: the served job ended {served['terminal']!r}"
    if served["source"] != "store":
        return f"{where}: the served job was {served['source']}, not read from the store"
    try:
        validate_artifact(served["artifact"])
    except ExperimentError as error:
        return f"{where}: the served artifact is invalid: {error}"
    if served["artifact"]["records"] != expected:
        return f"{where}: served records differ from a direct run of the job"
    return None


WORKLOADS = {
    workload.name: workload
    for workload in (ClusterPadded, StoreRerun)
}


def build(name: str, seed: int, seconds: float, work_dir) -> Workload:
    """The named workload, sized for ``seconds`` of ops."""
    kind = WORKLOADS[name]
    return kind(seed, ops_for(seconds, kind.nominal_op_s), work_dir)
