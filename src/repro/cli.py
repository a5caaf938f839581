"""Command-line interface.

::

    python -m repro cluster  --input graph.mixed --clusters 3 [--backend ...]
    python -m repro generate --kind flow --nodes 60 --clusters 3 --output g.mixed
    python -m repro bench    --name c17 --clusters 2
    python -m repro spectrum --input graph.mixed --top 8
    python -m repro experiments --only fig2 --jobs 4 --out artifacts/
    python -m repro serve    --port 8831 --store-dir cas-store --workers 2

Graphs travel in the edge-list format of ``repro.graphs.io``.  Every
subcommand prints plain text to stdout and exits non-zero on error, so the
tool scripts cleanly.

``--backend {auto,dense,sparse}`` selects the linear-algebra
representation (see ``repro.linalg``): ``auto`` keeps small graphs on the
exact dense path, routes the midrange through sparse CSR + LOBPCG with a
Jacobi preconditioner, and switches large ones to sparse CSR + Lanczos,
which is what lets ``cluster --method classical`` handle 10k-node graphs.
The QPE statistics engine is chosen separately via ``--qpe-backend
{analytic,circuit}``.

``experiments`` drives the unified sweep engine
(:mod:`repro.experiments.runner`): it reproduces the paper's figure/table
sweeps, optionally across a process pool (``--jobs``), and writes one
validated JSON artifact per sweep plus the rendered markdown.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import QSCConfig, QuantumSpectralClustering
from repro.core.config import SPECTRAL_ENGINES
from repro.exceptions import ReproError
from repro.graphs import (
    cyclic_flow_sbm,
    ensure_connected,
    hermitian_laplacian,
    io as graph_io,
    load_c17,
    load_s27,
    mixed_sbm,
    random_mixed_graph,
    sparse_mixed_sbm,
)
from repro.graphs.generators import GENERATOR_VERSIONS
from repro.linalg import BACKEND_NAMES, resolve_backend
from repro.metrics import partition_summary
from repro.pipeline import QSCPipeline, STAGE_NAMES
from repro.spectral import ClassicalSpectralClustering

BENCHES = {"c17": load_c17, "s27": load_s27}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantum spectral clustering of mixed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cluster_count(value: str):
        return "auto" if value == "auto" else int(value)

    def positive_int(value: str) -> int:
        number = int(value)
        if number < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
        return number

    cluster = sub.add_parser("cluster", help="cluster an edge-list graph")
    cluster.add_argument("--input", required=True, help="edge-list file")
    cluster.add_argument(
        "--clusters",
        type=cluster_count,
        required=True,
        help="cluster count, or 'auto' for quantum eigengap selection",
    )
    cluster.add_argument(
        "--method",
        choices=("quantum", "classical"),
        default="quantum",
    )
    cluster.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help="linear-algebra backend: auto (size-based), dense or sparse",
    )
    cluster.add_argument(
        "--qpe-backend",
        choices=("analytic", "circuit"),
        default="analytic",
        help="QPE statistics engine for --method quantum",
    )
    cluster.add_argument(
        "--spectral-engine",
        choices=SPECTRAL_ENGINES,
        default="v3",
        help=(
            "eigensolve of the analytic QPE engine: v3 decomposes only the "
            "n x n graph block with LAPACK's MRRR driver and appends the "
            "analytic pad eigenpairs (default); v1 decomposes the whole "
            "power-of-two padded matrix with numpy's eigh, the byte-stable "
            "contract the paper sweeps pin.  Both agree to rounding, so "
            "labels match while digests differ"
        ),
    )
    cluster.add_argument("--precision-bits", type=int, default=7)
    cluster.add_argument("--shots", type=int, default=1024)
    cluster.add_argument(
        "--readout-chunk-size",
        type=int,
        default=None,
        metavar="ROWS",
        help=(
            "rows per batched-readout block (bounds memory on large "
            "graphs; default: all rows in one block)"
        ),
    )
    cluster.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help=(
            "attach the shared content-addressed compute store rooted at "
            "DIR: spectral decompositions and pipeline stages are served "
            "from and published to it, so a repeat run "
            "(from any process) reads every stage it already published "
            "instead of recomputing it; --resume-from loads upstream "
            "stages from it too; results are bit-identical either way "
            "(default: no shared store)"
        ),
    )
    cluster.add_argument("--theta", type=float, default=float(np.pi / 2))
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-stage wall time, data source and spectral-cache "
            "counters of the staged pipeline (quantum method only)"
        ),
    )
    cluster.add_argument(
        "--resume-from",
        choices=STAGE_NAMES,
        default=None,
        metavar="STAGE",
        help=(
            "resume at STAGE: load every upstream stage from the "
            "--store-dir store instead of recomputing it (a stage it "
            "lacks is recomputed), and re-run STAGE onward (stages: "
            f"{', '.join(STAGE_NAMES)})"
        ),
    )

    generate = sub.add_parser("generate", help="generate a synthetic graph")
    generate.add_argument(
        "--kind", choices=("mixed", "flow", "random", "sparse"), default="mixed"
    )
    generate.add_argument("--nodes", type=int, default=60)
    generate.add_argument("--clusters", type=int, default=2)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--generator-version",
        choices=GENERATOR_VERSIONS,
        default="v1",
        help=(
            "seed contract of the SBM generators (--kind mixed/flow/"
            "sparse): v1 is the byte-stable legacy sampler; for mixed/"
            "flow v2 is the vectorized block sampler (same distribution, "
            "much faster at 1k+ nodes), for sparse v2 is the draw-exact "
            "block sampler (no duplicate-removal shortfall)"
        ),
    )
    generate.add_argument("--output", required=True)
    generate.add_argument(
        "--labels-output", help="optional file for ground-truth labels"
    )

    bench = sub.add_parser("bench", help="cluster an embedded ISCAS circuit")
    bench.add_argument("--name", choices=sorted(BENCHES), required=True)
    bench.add_argument("--clusters", type=int, default=2)
    bench.add_argument("--seed", type=int, default=0)

    spectrum = sub.add_parser(
        "spectrum", help="print the low Hermitian-Laplacian spectrum"
    )
    spectrum.add_argument("--input", required=True)
    spectrum.add_argument("--top", type=positive_int, default=8)
    spectrum.add_argument("--theta", type=float, default=float(np.pi / 2))
    spectrum.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help="linear-algebra backend for the eigensolve",
    )

    experiments = sub.add_parser(
        "experiments",
        help="run the paper's figure/table sweeps via the sweep engine",
    )
    experiments.add_argument(
        "--list",
        action="store_true",
        dest="list_specs",
        help="list the available sweeps and exit",
    )
    experiments.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help=(
            "run only the named sweep (repeatable, e.g. --only fig2 "
            "--only table1); default: all six"
        ),
    )
    experiments.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="override the per-point trial count of every selected sweep",
    )
    experiments.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for trial execution (default 1 = serial; "
            "parallel output is bit-identical to serial)"
        ),
    )
    experiments.add_argument(
        "--generator-version",
        choices=GENERATOR_VERSIONS,
        default=None,
        help=(
            "graph-generator seed contract for every selected sweep "
            "(recorded in the artifacts; default: each spec's default, v1)"
        ),
    )
    experiments.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "linalg backend for every selected sweep's quantum fits "
            "(recorded in the artifacts' profile; default: each spec's "
            "default, auto)"
        ),
    )
    experiments.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help=(
            "shared content-addressed store for every selected sweep: "
            "worker processes publish spectral entries and pipeline "
            "stages to DIR, and a warm re-run serves them as cross-process "
            "disk hits instead of recomputing (recorded in the artifacts' "
            "store counters and stage profile; records are bit-identical "
            "either way; default: no shared store)"
        ),
    )
    experiments.add_argument(
        "--out",
        default="artifacts",
        metavar="DIR",
        help="directory for the JSON artifacts (default: ./artifacts)",
    )

    store = sub.add_parser(
        "store",
        help="inspect the shared content-addressed compute store",
    )
    store.add_argument(
        "action",
        choices=("stats", "verify", "gc"),
        help=(
            "stats: tier occupancy per namespace; verify: integrity-check "
            "every entry (exit 1 if any is corrupt); gc: remove corrupt "
            "entries and stale temp files, then enforce the byte budget"
        ),
    )
    store.add_argument(
        "--dir", required=True, metavar="DIR", help="store root directory"
    )
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget for gc (default: the store's configured budget)",
    )
    store.add_argument(
        "--grace-seconds",
        type=float,
        default=60.0,
        metavar="S",
        help=(
            "gc only: reap in-flight .tmp-* files older than S seconds; "
            "younger ones are presumed live writers and survive "
            "(default: 60)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the async clustering-as-a-service job server",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8831,
        help=(
            "bind port; 0 picks an ephemeral one, announced on the "
            "readiness line (default: 8831)"
        ),
    )
    serve.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help=(
            "shared content-addressed store for every served job: stage "
            "checkpoints land there as they complete (crash-resume) "
            "and finished artifacts are published under the job's content "
            "fingerprint, so identical resubmissions are served without "
            "recomputing (default: no store — jobs always compute)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrently running jobs (default: 2)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-attempt deadline for one job's worker process; a worker "
            "past it is killed and the job retried (default: no deadline)"
        ),
    )
    serve.add_argument(
        "--job-retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "extra attempts a crashed or expired job worker gets before "
            "the job fails (default: 1)"
        ),
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission control: reject new submissions with the "
            "retryable 'rejected' error while N jobs are already queued "
            "(default: unbounded)"
        ),
    )
    serve.add_argument(
        "--max-jobs-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission control: one tenant may have at most N jobs "
            "queued or running; excess submissions get the retryable "
            "'rejected' error "
            "(default: unbounded)"
        ),
    )
    serve.add_argument(
        "--auth-token-file",
        metavar="FILE",
        default=None,
        help=(
            "require bearer-token authentication: FILE holds one "
            "'tenant:token' pair per line ('#' comments allowed); the "
            "tenant id is derived from the presented token and scopes "
            "job listing, status, cancel and events "
            "(default: open server, single 'public' tenant)"
        ),
    )
    return parser


def _cmd_cluster(args) -> int:
    graph = graph_io.load(args.input)
    if args.method == "quantum":
        if args.resume_from is not None and args.store_dir is None:
            raise ReproError(
                "--resume-from needs --store-dir DIR (the store a previous "
                "run published its stages to)"
            )
        config = QSCConfig(
            backend=args.qpe_backend,
            spectral_engine=args.spectral_engine,
            linalg_backend=args.backend,
            precision_bits=args.precision_bits,
            shots=args.shots,
            readout_chunk_size=args.readout_chunk_size,
            store_dir=args.store_dir,
            theta=args.theta,
            seed=args.seed,
        )
        pipeline = QSCPipeline(args.clusters, config)
        result = pipeline.run(graph, resume_from=args.resume_from)
    else:
        if args.clusters == "auto":
            raise ReproError(
                "--clusters auto requires --method quantum (histogram-"
                "native selection)"
            )
        for flag, name in (
            (args.profile, "--profile"),
            (args.resume_from, "--resume-from"),
        ):
            if flag:
                raise ReproError(
                    f"{name} applies to the staged quantum pipeline "
                    "(--method quantum)"
                )
        result = ClassicalSpectralClustering(
            args.clusters, theta=args.theta, backend=args.backend, seed=args.seed
        ).fit(graph)
    print("labels:", " ".join(str(int(label)) for label in result.labels))
    summary = partition_summary(graph, result.labels)
    for key, value in summary.items():
        print(f"{key}: {value:.4f}")
    if args.method == "quantum" and args.profile:
        print("stage profile:")
        for row in result.profile:
            annotations = [
                row[key] for key in ("linalg_backend", "eigensolver") if key in row
            ]
            backend = f"  [{'/'.join(annotations)}]" if annotations else ""
            print(
                f"  {row['stage']:9s} {row['seconds']*1e3:9.2f} ms  "
                f"{row['source']:10s} cache {row['cache_hits']}h/"
                f"{row['cache_misses']}m{backend}"
            )
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "random" and args.generator_version != "v1":
        # random has no versioned contract — refuse rather than silently
        # mislabel the provenance.
        raise ReproError(
            f"--generator-version applies to --kind mixed/flow/sparse only "
            f"(got --kind {args.kind})"
        )
    if args.kind == "mixed":
        graph, labels = mixed_sbm(
            args.nodes,
            args.clusters,
            seed=args.seed,
            generator_version=args.generator_version,
        )
    elif args.kind == "flow":
        graph, labels = cyclic_flow_sbm(
            args.nodes,
            args.clusters,
            seed=args.seed,
            generator_version=args.generator_version,
        )
    elif args.kind == "sparse":
        graph, labels = sparse_mixed_sbm(
            args.nodes,
            args.clusters,
            seed=args.seed,
            generator_version=args.generator_version,
        )
    else:
        graph = random_mixed_graph(args.nodes, seed=args.seed)
        labels = None
    ensure_connected(graph, seed=args.seed)
    graph_io.save(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    if labels is not None and args.labels_output:
        with open(args.labels_output, "w", encoding="utf-8") as handle:
            handle.write(" ".join(str(int(label)) for label in labels) + "\n")
        print(f"wrote labels to {args.labels_output}")
    return 0


def _cmd_bench(args) -> int:
    netlist = BENCHES[args.name]()
    graph = netlist.to_mixed_graph(net_cliques=True)
    ensure_connected(graph, seed=args.seed)
    config = QSCConfig(
        backend="circuit",
        precision_bits=5,
        shots=4096,
        theta=float(np.pi / 4),
        seed=args.seed,
    )
    result = QuantumSpectralClustering(args.clusters, config).fit(graph)
    names = graph.node_labels or [str(i) for i in range(graph.num_nodes)]
    for cluster in range(args.clusters):
        members = [names[i] for i in np.flatnonzero(result.labels == cluster)]
        print(f"partition {cluster}: {', '.join(members)}")
    summary = partition_summary(graph, result.labels)
    for key, value in summary.items():
        print(f"{key}: {value:.4f}")
    return 0


def _cmd_spectrum(args) -> int:
    graph = graph_io.load(args.input)
    be = resolve_backend(args.backend, graph.num_nodes)
    laplacian = hermitian_laplacian(graph, theta=args.theta, backend=be)
    top = min(args.top, graph.num_nodes)
    values, _ = be.lowest_eigenpairs(laplacian, top)
    for index in range(top):
        print(f"lambda_{index + 1} = {values[index]:.6f}")
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import SweepRunner, registry, write_artifact

    specs = registry()
    if args.list_specs:
        for name, factory in specs.items():
            spec = factory()
            axes = ", ".join(f"{axis.name}={list(axis.values)}" for axis in spec.axes)
            print(f"{name:8s} {spec.artifact:9s} {spec.description}")
            print(f"{'':8s} axes: {axes}; trials: {spec.trials}")
        return 0
    selected = args.only or list(specs)
    unknown = [name for name in selected if name not in specs]
    if unknown:
        raise ReproError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(specs)}"
        )
    for name in selected:
        factory_kwargs = {}
        if args.generator_version is not None:
            factory_kwargs["generator_version"] = args.generator_version
        if args.backend is not None:
            factory_kwargs["linalg_backend"] = args.backend
        if args.store_dir is not None:
            factory_kwargs["store_dir"] = args.store_dir
        spec = specs[name](**factory_kwargs)
        if args.trials is not None:
            spec = spec.with_updates(trials=args.trials)
        result = SweepRunner(spec, jobs=args.jobs).run()
        artifact = result.to_artifact()
        path = write_artifact(result, args.out, artifact=artifact)
        cache = result.cache
        print(
            f"{name}: {len(result.records)} records in "
            f"{result.elapsed_seconds:.2f}s (jobs={result.jobs}, "
            f"cache hits={cache['hits']} misses={cache['misses']}) -> {path}"
        )
        if args.store_dir is not None:
            store = result.store
            print(
                f"{'':{len(name)}s}  store disk_hits={store['disk_hits']} "
                f"memory_hits={store['memory_hits']} "
                f"misses={store['misses']}"
            )
        if artifact["table"]:
            print(artifact["table"])
    return 0


def _cmd_store(args) -> int:
    from repro.store import ContentStore

    store = ContentStore(root=args.dir)
    if args.action == "stats":
        report = store.disk_report()
        print(f"root: {store.root}")
        print(f"entries: {report['entries']}")
        print(f"bytes: {report['bytes']}")
        for namespace in sorted(report["namespaces"]):
            row = report["namespaces"][namespace]
            print(
                f"  {namespace:9s} {row['entries']:6d} entries  "
                f"{row['bytes']:12d} bytes"
            )
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"checked: {report['checked']}  ok: {report['ok']}")
        for path in report["corrupt"]:
            print(f"corrupt: {path}")
        return 1 if report["corrupt"] else 0
    report = store.gc(
        max_bytes=args.max_bytes, tmp_grace_seconds=args.grace_seconds
    )
    print(
        f"corrupt removed: {report['corrupt_removed']}  "
        f"temp files removed: {report['temp_removed']}  "
        f"evicted: {report['evicted']}"
    )
    print(f"entries: {report['entries']}  bytes: {report['bytes']}")
    return 0


def _cmd_serve(args) -> int:
    # Imported lazily: the service layer (asyncio server machinery) is
    # only paid for by the one subcommand that runs it.
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        workers=args.workers,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        max_queued=args.max_queued,
        max_jobs_per_tenant=args.max_jobs_per_tenant,
        auth_token_file=args.auth_token_file,
    )


_COMMANDS = {
    "cluster": _cmd_cluster,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "spectrum": _cmd_spectrum,
    "experiments": _cmd_experiments,
    "store": _cmd_store,
    "serve": _cmd_serve,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
