"""Sharded readout execution: determinism, fault injection, crash resume.

The contract under test (see ``repro/pipeline/sharding.py``):

* the merged sharded readout is **bit-identical** to the unsharded stage
  at a fixed seed for any shard count — pinned against the same golden
  digest as the unsharded pipeline (``test_golden.GOLDEN``);
* the supervisor retries crashed/hung shards with capped backoff, raises
  after exhausting retries, or degrades to partial results on request;
* completed shards checkpoint as ``readout.shard-<i>.npz`` the moment
  they finish, so a crashed run resumes recomputing only missing shards
  and still lands on the golden digest.

``FaultyShardExecutor`` is the deterministic fault-injection double: it
fails exactly the scheduled ``(shard, attempt)`` pairs — a "crash" is an
attempt that dies immediately, a "hang" an attempt that never finishes
(detected only via the supervisor's timeout) — and runs everything else
inline.
"""

import os

import numpy as np
import pytest
from test_golden import GOLDEN, build_case, result_digest

from repro import QSCPipeline
from repro.core.config import QSCConfig
from repro.core.readout import batched_readout
from repro.exceptions import ClusteringError
from repro.pipeline import checkpoint, sharding, telemetry
from repro.pipeline.sharding import (
    RowShard,
    shard_layout,
    sharded_readout,
)
from repro.pipeline.supervisor import (
    InlineShardExecutor,
    ProcessShardExecutor,
    ShardHandle,
    ShardSupervisor,
    ShardTask,
    SupervisorCancelled,
    _CompletedHandle,
)


class _HungHandle(ShardHandle):
    """An attempt that never completes; only a timeout can clear it."""

    def __init__(self):
        self.killed = False

    def done(self) -> bool:
        return False

    def result(self):
        raise AssertionError("a hung attempt has no result")

    def kill(self) -> None:
        self.killed = True


class FaultyShardExecutor:
    """Deterministic fault injection around the inline executor.

    ``schedule`` maps ``(shard_index, attempt)`` to ``"crash"`` (the
    attempt fails immediately) or ``"hang"`` (the attempt never finishes);
    unscheduled attempts run normally.  ``log`` records every submission
    as ``(shard, attempt, mode)`` for assertions on the retry sequence.
    """

    def __init__(self, schedule=None):
        self.schedule = dict(schedule or {})
        self.inner = InlineShardExecutor()
        self.log = []
        self.hung = []

    def submit(self, task: ShardTask, attempt: int) -> ShardHandle:
        mode = self.schedule.get((task.index, attempt), "ok")
        self.log.append((task.index, attempt, mode))
        if mode == "crash":
            return _CompletedHandle(
                error=f"shard {task.index}: injected crash (attempt {attempt})"
            )
        if mode == "hang":
            handle = _HungHandle()
            self.hung.append(handle)
            return handle
        return self.inner.submit(task, attempt)


def _always(mode, shard_index, attempts=10):
    """A schedule failing every attempt of one shard."""
    return {(shard_index, attempt): mode for attempt in range(1, attempts + 1)}


# --- module-level task payloads for the real process executor ----------
# (must be picklable, hence top-level; a hard os._exit kills the worker
# without a traceback or a piped-back report — the closest in-test stand-
# in for a segfault or an OOM kill)


def _exit_first_attempt(sentinel, value):
    """Die without reporting on the first call, succeed afterwards.

    Attempt state must live outside the worker (each attempt is a fresh
    process), so the first caller leaves a sentinel file behind.
    """
    from pathlib import Path

    path = Path(sentinel)
    if not path.exists():
        path.write_text("crashed")
        os._exit(1)
    return value


def _hard_exit():
    """Die without reporting, every attempt."""
    os._exit(1)


def _identity(value):
    return value


def _readout_case():
    """(backend, accepted, config) of the golden analytic_shots case."""
    graph, k, config = build_case("analytic_shots")
    pipeline = QSCPipeline(k, config)
    result = pipeline.run(graph)
    return pipeline.state["backend"], pipeline.state["accepted"], config, result


def _shard_store_entry(store, shard_name):
    """Path of one shard's store entry, found by its embedded identity
    (the address is an opaque digest, but every entry names itself)."""
    from repro.store.content_store import _HEADER_BYTES, _read_arrays

    root = store.root / checkpoint.SHARD_NAMESPACE
    for path in sorted(root.rglob("*.cas")):
        body = memoryview(path.read_bytes())[_HEADER_BYTES:]
        identity = str(_read_arrays(body)["__store_entry__"])
        if f":{shard_name}@" in identity:
            return path
    raise AssertionError(f"no store entry for {shard_name}")


def _run_sharded(graph, k, config, shards, tmp_path=None, **run_kwargs):
    pipeline = QSCPipeline(k, config.with_updates(readout_shards=shards))
    result = pipeline.run(graph, **run_kwargs)
    return pipeline, result


class TestShardLayout:
    def test_balanced_contiguous_cover(self):
        layout = shard_layout(40, 7)
        assert len(layout) == 7
        assert layout[0].start == 0 and layout[-1].stop == 40
        for left, right in zip(layout, layout[1:]):
            assert left.stop == right.start
        sizes = [shard.rows for shard in layout]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # larger shards first

    def test_depends_only_on_arguments(self):
        assert shard_layout(40, 7) == shard_layout(40, 7)
        assert shard_layout(5, 2) == (
            RowShard(0, 0, 3),
            RowShard(1, 3, 5),
        )

    def test_more_shards_than_rows_gives_empty_shards(self):
        layout = shard_layout(3, 5)
        assert [shard.rows for shard in layout] == [1, 1, 1, 0, 0]

    def test_rejects_bad_counts(self):
        with pytest.raises(ClusteringError, match="shard_count"):
            shard_layout(10, 0)
        with pytest.raises(ClusteringError, match="num_rows"):
            shard_layout(-1, 2)


class TestSupervisor:
    def test_retries_after_crash(self):
        executor = FaultyShardExecutor({(0, 1): "crash"})
        supervisor = ShardSupervisor(executor, retries=2, backoff_base=0.0)
        outcomes = supervisor.run([ShardTask(0, lambda: "payload")])
        assert outcomes[0].value == "payload"
        assert outcomes[0].attempts == 2
        assert not outcomes[0].failed
        assert executor.log == [(0, 1, "crash"), (0, 2, "ok")]

    def test_raises_after_exhausting_retries(self):
        executor = FaultyShardExecutor(_always("crash", 0))
        supervisor = ShardSupervisor(executor, retries=2, backoff_base=0.0)
        with pytest.raises(ClusteringError, match="failed after 3 attempts"):
            supervisor.run([ShardTask(0, lambda: "payload")])
        assert [entry[1] for entry in executor.log] == [1, 2, 3]

    def test_degrade_records_failure_and_continues(self):
        executor = FaultyShardExecutor(_always("crash", 1))
        supervisor = ShardSupervisor(
            executor, retries=1, backoff_base=0.0, on_failure="degrade"
        )
        outcomes = supervisor.run(
            [ShardTask(0, lambda: "a"), ShardTask(1, lambda: "b")]
        )
        assert outcomes[0].value == "a" and not outcomes[0].failed
        assert outcomes[1].failed and outcomes[1].value is None
        assert "injected crash" in outcomes[1].error
        assert outcomes[1].attempts == 2

    def test_timeout_kills_hung_attempt_then_retries(self):
        executor = FaultyShardExecutor({(0, 1): "hang"})
        supervisor = ShardSupervisor(
            executor, timeout=0.02, retries=1, backoff_base=0.0
        )
        outcomes = supervisor.run([ShardTask(0, lambda: "late")])
        assert outcomes[0].value == "late"
        assert outcomes[0].attempts == 2
        assert executor.hung[0].killed  # the expired attempt was killed

    def test_timeout_exhaustion_mentions_the_deadline(self):
        executor = FaultyShardExecutor(_always("hang", 0))
        supervisor = ShardSupervisor(
            executor, timeout=0.01, retries=0, backoff_base=0.0
        )
        with pytest.raises(ClusteringError, match="timeout"):
            supervisor.run([ShardTask(0, lambda: None)])

    def test_backoff_is_capped_exponential(self):
        supervisor = ShardSupervisor(backoff_base=0.1, backoff_cap=0.35)
        assert supervisor.backoff(1) == pytest.approx(0.1)
        assert supervisor.backoff(2) == pytest.approx(0.2)
        assert supervisor.backoff(3) == pytest.approx(0.35)  # capped
        assert supervisor.backoff(9) == pytest.approx(0.35)

    def test_on_complete_fires_per_success(self):
        seen = []
        supervisor = ShardSupervisor(retries=0)
        supervisor.run(
            [ShardTask(0, lambda: "x"), ShardTask(1, lambda: "y")],
            on_complete=lambda outcome: seen.append(outcome.index),
        )
        assert sorted(seen) == [0, 1]

    def test_on_attempt_fires_per_launch(self):
        executor = FaultyShardExecutor({(0, 1): "crash"})
        supervisor = ShardSupervisor(executor, retries=2, backoff_base=0.0)
        launches = []
        supervisor.run(
            [ShardTask(0, lambda: "payload")],
            on_attempt=lambda index, attempt: launches.append((index, attempt)),
        )
        # One callback per launch, attempt numbers 1-based — attempt 2 is
        # the restart the service layer reports as a restarted child.
        assert launches == [(0, 1), (0, 2)]

    def test_cancel_event_aborts_and_kills_in_flight(self):
        import threading

        cancel = threading.Event()
        executor = FaultyShardExecutor(_always("hang", 0))
        supervisor = ShardSupervisor(executor, retries=0, backoff_base=0.0)
        with pytest.raises(SupervisorCancelled, match="cancelled"):
            supervisor.run(
                [ShardTask(0, lambda: None)],
                # Trip the cancel right after the attempt launches, so
                # the next sweep observes it with the attempt in flight.
                on_attempt=lambda index, attempt: cancel.set(),
                cancel=cancel,
            )
        assert executor.hung[0].killed

    def test_cancel_spares_already_completed_work(self):
        import threading

        cancel = threading.Event()
        completed = []
        supervisor = ShardSupervisor(retries=0, max_workers=1)

        def on_complete(outcome):
            completed.append(outcome.index)
            cancel.set()  # cancel after the first task checkpoints

        with pytest.raises(SupervisorCancelled):
            supervisor.run(
                [ShardTask(0, lambda: "x"), ShardTask(1, lambda: "y")],
                on_complete,
                cancel=cancel,
            )
        # Task 0 completed (and would have checkpointed); task 1 never ran.
        assert completed == [0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ClusteringError, match="timeout"):
            ShardSupervisor(timeout=0.0)
        with pytest.raises(ClusteringError, match="retries"):
            ShardSupervisor(retries=-1)
        with pytest.raises(ClusteringError, match="on_failure"):
            ShardSupervisor(on_failure="explode")
        with pytest.raises(ClusteringError, match="max_workers"):
            ShardSupervisor(max_workers=0)


class TestProcessExecutorCrashes:
    """Real worker processes that die WITHOUT reporting.

    ``os._exit(1)`` closes the result pipe with no payload — exactly what
    a segfault or an OOM kill looks like to the supervisor.  The pipe-EOF
    must surface as the retryable "worker died without a result"
    ClusteringError, not as a raw EOFError escaping the supervision loop.
    """

    def test_hard_crash_is_retried(self, tmp_path):
        supervisor = ShardSupervisor(
            ProcessShardExecutor(), retries=2, backoff_base=0.0
        )
        outcomes = supervisor.run(
            [
                ShardTask(
                    0, _exit_first_attempt, (str(tmp_path / "mark"), "payload")
                )
            ]
        )
        assert outcomes[0].value == "payload"
        assert outcomes[0].attempts == 2
        assert not outcomes[0].failed

    def test_hard_crash_exhaustion_raises_clustering_error(self):
        supervisor = ShardSupervisor(
            ProcessShardExecutor(), retries=0, backoff_base=0.0
        )
        with pytest.raises(ClusteringError, match="died without a result"):
            supervisor.run([ShardTask(0, _hard_exit)])

    def test_hard_crash_exhaustion_degrades(self):
        supervisor = ShardSupervisor(
            ProcessShardExecutor(),
            retries=1,
            backoff_base=0.0,
            on_failure="degrade",
        )
        outcomes = supervisor.run(
            [ShardTask(0, _hard_exit), ShardTask(1, _identity, ("ok",))]
        )
        assert outcomes[1].value == "ok" and not outcomes[1].failed
        assert outcomes[0].failed and outcomes[0].value is None
        assert "died without a result" in outcomes[0].error
        assert outcomes[0].attempts == 2


class TestBitIdentity:
    """Any shard count must land on the unsharded golden digest."""

    @pytest.mark.parametrize("shards", [1, 2, 5, 7])
    def test_pipeline_matches_golden(self, shards, monkeypatch):
        # Inline executor: the determinism claim is independent of the
        # executor, and inline keeps the 4-count sweep fast.  The real
        # process executor is pinned separately below.
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        _, result = _run_sharded(graph, k, config, shards)
        assert result_digest(result) == GOLDEN["analytic_shots"]

    def test_pipeline_matches_golden_with_worker_processes(self):
        # No monkeypatch: shard_count > 1 uses the ProcessShardExecutor,
        # pinning that real worker processes reproduce the digest too.
        graph, k, config = build_case("analytic_shots")
        _, result = _run_sharded(graph, k, config, 2)
        assert result_digest(result) == GOLDEN["analytic_shots"]

    def test_pipeline_matches_golden_with_worker_cap(self, monkeypatch):
        # Worker concurrency is pure scheduling: a serial cap of one
        # in-flight shard still merges to the same bits.
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(shard_workers=1)
        _, result = _run_sharded(graph, k, config, 5)
        assert result_digest(result) == GOLDEN["analytic_shots"]

    def test_sharded_readout_matches_batched_readout(self):
        backend, accepted, config, _ = _readout_case()
        reference = batched_readout(
            backend, accepted, config.shots, np.random.default_rng(123)
        )
        sharded = sharded_readout(
            backend,
            accepted,
            config.shots,
            np.random.default_rng(123),
            shard_count=3,
            executor=InlineShardExecutor(),
        )
        np.testing.assert_array_equal(sharded.result.rows, reference.rows)
        np.testing.assert_array_equal(sharded.result.norms, reference.norms)
        np.testing.assert_array_equal(
            sharded.result.probabilities, reference.probabilities
        )
        assert sharded.incomplete_shards == ()

    def test_one_row_shards_differ_by_rounding_only(self):
        # Up to n/2 shards every shard has two or more rows and the merge
        # is bit-identical; past that, a one-row shard runs its filter as
        # a matrix-vector product, which rounds differently.
        backend, accepted, config, _ = _readout_case()
        num_rows = backend.num_nodes
        reference = batched_readout(
            backend, accepted, config.shots, np.random.default_rng(123)
        )
        for shards in (num_rows // 2, num_rows // 2 + 1, num_rows):
            merged = sharded_readout(
                backend,
                accepted,
                config.shots,
                np.random.default_rng(123),
                shard_count=shards,
                executor=InlineShardExecutor(),
            ).result
            np.testing.assert_array_equal(merged.norms, reference.norms)
            np.testing.assert_array_equal(
                merged.probabilities, reference.probabilities
            )
            if shards <= num_rows // 2:
                np.testing.assert_array_equal(merged.rows, reference.rows)
            else:
                np.testing.assert_allclose(
                    merged.rows, reference.rows, rtol=0, atol=1e-15
                )

    def test_identical_after_injected_crashes(self, monkeypatch):
        # Crashing two shards (one of them twice) changes nothing: retried
        # shards re-run on their own RNG slices.
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor(
                {(1, 1): "crash", (3, 1): "crash", (3, 2): "crash"}
            ),
        )
        graph, k, config = build_case("analytic_shots")
        _, result = _run_sharded(graph, k, config, 5)
        assert result_digest(result) == GOLDEN["analytic_shots"]
        readout = [r for r in result.profile if r["stage"] == "readout"][0]
        attempts = {row["shard"]: row["attempts"] for row in readout["shards"]}
        assert attempts == {0: 1, 1: 2, 2: 1, 3: 3, 4: 1}


class TestFaultInjectionThroughPipeline:
    def test_exhausted_shard_aborts_by_default(self, monkeypatch):
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor(_always("crash", 2)),
        )
        graph, k, config = build_case("analytic_shots")
        with pytest.raises(ClusteringError, match="shard 2"):
            _run_sharded(graph, k, config, 5)

    def test_degrade_returns_partial_result(self, monkeypatch):
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor(_always("crash", 2)),
        )
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(shard_failure_mode="degrade")
        _, result = _run_sharded(graph, k, config, 5)
        readout = [r for r in result.profile if r["stage"] == "readout"][0]
        assert readout["incomplete_shards"] == [2]
        sources = {row["shard"]: row["source"] for row in readout["shards"]}
        assert sources[2] == "failed"
        assert all(src == "computed" for i, src in sources.items() if i != 2)
        # The failed shard's rows degrade to zero norms (like dead rows);
        # the run still delivers labels for every node.
        layout = shard_layout(graph.num_nodes, 5)
        dead = slice(layout[2].start, layout[2].stop)
        assert np.all(result.row_norms[dead] == 0.0)
        assert result.labels.shape == (graph.num_nodes,)

    def test_degraded_run_does_not_checkpoint_stage_or_downstream(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor(_always("crash", 1)),
        )
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(shard_failure_mode="degrade")
        _run_sharded(graph, k, config, 3, save_stages=tmp_path)
        # Completed shards checkpointed; the whole stage (with its zeroed
        # rows) must NOT be, so a later resume recomputes what is missing.
        assert not checkpoint.has_stage_checkpoint(tmp_path, "readout")
        assert checkpoint.has_stage_checkpoint(tmp_path, "readout.shard-0")
        assert not checkpoint.has_stage_checkpoint(tmp_path, "readout.shard-1")
        assert checkpoint.has_stage_checkpoint(tmp_path, "readout.shard-2")
        # Downstream stages were computed from the zeroed rows and would
        # fingerprint like complete ones — they must not be checkpointed
        # either, so a resume can never skip past the degradation.
        assert not checkpoint.has_stage_checkpoint(tmp_path, "embedding")
        assert not checkpoint.has_stage_checkpoint(tmp_path, "qmeans")
        # Stages upstream of the degradation are complete and keep theirs.
        assert checkpoint.has_stage_checkpoint(tmp_path, "laplacian")
        assert checkpoint.has_stage_checkpoint(tmp_path, "threshold")

    def test_degraded_state_refuses_in_memory_downstream_reuse(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor(_always("crash", 1)),
        )
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(shard_failure_mode="degrade")
        pipeline, _ = _run_sharded(graph, k, config, 3)
        assert pipeline.state["degraded_stages"] == ("readout",)
        # Reusing the degraded state downstream of the failure would build
        # on zeroed rows — refused.
        with pytest.raises(ClusteringError, match="degraded"):
            QSCPipeline(k, pipeline.config).run(
                graph, resume_from="qmeans", upstream=pipeline.state
            )
        # Resuming AT (or before) the degraded stage recomputes it — fine,
        # and with a healthy executor it lands back on the golden digest.
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        result = QSCPipeline(k, pipeline.config).run(
            graph, resume_from="readout", upstream=pipeline.state
        )
        assert result_digest(result) == GOLDEN["analytic_shots"]


class TestCrashResume:
    def test_aborted_run_resumes_from_completed_shards(
        self, monkeypatch, tmp_path
    ):
        """Kill a worker mid-run; the rerun recomputes only its shard."""
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor(_always("crash", 3)),
        )
        graph, k, config = build_case("analytic_shots")
        with pytest.raises(ClusteringError, match="shard 3"):
            _run_sharded(graph, k, config, 5, save_stages=tmp_path)
        # Shards that completed before the abort were checkpointed.
        persisted = [
            i
            for i in range(5)
            if checkpoint.has_stage_checkpoint(tmp_path, f"readout.shard-{i}")
        ]
        assert 3 not in persisted and persisted  # some survived, not 3
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        _, result = _run_sharded(graph, k, config, 5, save_stages=tmp_path)
        assert result_digest(result) == GOLDEN["analytic_shots"]
        readout = [r for r in result.profile if r["stage"] == "readout"][0]
        sources = {row["shard"]: row["source"] for row in readout["shards"]}
        for index in persisted:
            assert sources[index] == "checkpoint"
        assert sources[3] == "computed"

    def test_resume_from_partial_shard_set(self, monkeypatch, tmp_path):
        """Deleting the stage file + one shard recomputes only that shard."""
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        _run_sharded(graph, k, config, 5, save_stages=tmp_path)
        checkpoint.stage_path(tmp_path, "readout").unlink()
        checkpoint.stage_path(tmp_path, "readout.shard-1").unlink()
        _, result = _run_sharded(
            graph, k, config, 5, save_stages=tmp_path, resume_from="readout"
        )
        assert result_digest(result) == GOLDEN["analytic_shots"]
        readout = [r for r in result.profile if r["stage"] == "readout"][0]
        sources = {row["shard"]: row["source"] for row in readout["shards"]}
        assert sources == {
            0: "checkpoint",
            1: "computed",
            2: "checkpoint",
            3: "checkpoint",
            4: "checkpoint",
        }

    def test_resume_recomputes_corrupted_shard_checkpoint(
        self, monkeypatch, tmp_path
    ):
        """A bit-flipped shard archive heals: only that shard recomputes,
        its siblings stay trusted, and the result is still golden."""
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        _run_sharded(graph, k, config, 5, save_stages=tmp_path)
        checkpoint.stage_path(tmp_path, "readout").unlink()
        shard_file = checkpoint.stage_path(tmp_path, "readout.shard-1")
        blob = bytearray(shard_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # lands in the rows archive member
        shard_file.write_bytes(bytes(blob))
        _, result = _run_sharded(
            graph, k, config, 5, save_stages=tmp_path, resume_from="readout"
        )
        assert result_digest(result) == GOLDEN["analytic_shots"]
        readout = [r for r in result.profile if r["stage"] == "readout"][0]
        sources = {row["shard"]: row["source"] for row in readout["shards"]}
        assert sources == {
            0: "checkpoint",
            1: "computed",
            2: "checkpoint",
            3: "checkpoint",
            4: "checkpoint",
        }
        # The healed shard was re-checkpointed, so a second resume is
        # fully checkpoint-served.
        checkpoint.stage_path(tmp_path, "readout").unlink()
        _, again = _run_sharded(
            graph, k, config, 5, save_stages=tmp_path, resume_from="readout"
        )
        assert result_digest(again) == GOLDEN["analytic_shots"]
        readout = [r for r in again.profile if r["stage"] == "readout"][0]
        assert all(row["source"] == "checkpoint" for row in readout["shards"])

    def test_store_resume_recomputes_corrupted_shard_entry(
        self, monkeypatch, tmp_path, pristine_store
    ):
        """Same healing through the shared content-addressed store: a
        corrupt shard entry is evicted and recomputed while the sibling
        shards (and the upstream stages) are served from the store."""
        from repro.store import get_store

        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(store_dir=str(tmp_path / "store"))
        _run_sharded(graph, k, config, 5)  # cold run fills the store
        store = get_store()
        entry = _shard_store_entry(store, "readout.shard-1")
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))
        _, result = _run_sharded(graph, k, config, 5, resume_from="readout")
        assert result_digest(result) == GOLDEN["analytic_shots"]
        readout = [r for r in result.profile if r["stage"] == "readout"][0]
        sources = {row["shard"]: row["source"] for row in readout["shards"]}
        assert sources == {
            0: "checkpoint",
            1: "computed",
            2: "checkpoint",
            3: "checkpoint",
            4: "checkpoint",
        }
        assert store.counters()["corrupt_evictions"] >= 1

    def test_shard_checkpoint_rejects_different_context(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        _run_sharded(graph, k, config, 3, save_stages=tmp_path)
        checkpoint.stage_path(tmp_path, "readout").unlink()
        with pytest.raises(ClusteringError, match="different run context"):
            _run_sharded(
                graph,
                k,
                config.with_updates(shots=config.shots * 2),
                3,
                save_stages=tmp_path,
                resume_from="readout",
            )

    def test_shard_checkpoint_rejects_different_layout(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            sharding, "default_executor", lambda count: InlineShardExecutor()
        )
        graph, k, config = build_case("analytic_shots")
        _run_sharded(graph, k, config, 3, save_stages=tmp_path)
        checkpoint.stage_path(tmp_path, "readout").unlink()
        # Same run context, different decomposition: shard files encode
        # their layout, so they refuse to load into mismatched spans
        # (delete them — or the directory — to re-shard).
        with pytest.raises(ClusteringError, match="different run context"):
            _run_sharded(
                graph, k, config, 4, save_stages=tmp_path, resume_from="readout"
            )


class TestShardTelemetry:
    def test_stage_totals_gain_shard_counters_only_when_sharded(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            sharding,
            "default_executor",
            lambda count: FaultyShardExecutor({(1, 1): "crash"}),
        )
        graph, k, config = build_case("analytic_shots")
        telemetry.reset_stage_totals()
        QSCPipeline(k, config).run(graph)
        unsharded = telemetry.stage_totals()
        assert set(unsharded["readout"]) == set(telemetry.TOTAL_KEYS)
        before = telemetry.stage_totals()
        _run_sharded(graph, k, config, 3)
        delta = telemetry.totals_delta(before, telemetry.stage_totals())
        readout = delta["readout"]
        assert readout["shards_computed"] == 3
        assert readout["shards_retried"] == 1
        assert readout["shards_loaded"] == 0
        assert readout["shards_failed"] == 0
        # Unsharded stages keep the classic three-key shape in the delta.
        assert set(delta["qmeans"]) == set(telemetry.TOTAL_KEYS)
        telemetry.reset_stage_totals()

    def test_merge_totals_accumulates_shard_counters(self):
        acc = {"readout": {"seconds": 1.0, "computed": 1, "loaded": 0}}
        telemetry.merge_totals(
            acc,
            {
                "readout": {
                    "seconds": 0.5,
                    "computed": 1,
                    "loaded": 0,
                    "shards_computed": 4,
                    "shards_loaded": 1,
                    "shards_retried": 2,
                    "shards_failed": 0,
                }
            },
        )
        assert acc["readout"]["computed"] == 2
        assert acc["readout"]["shards_computed"] == 4
        assert acc["readout"]["shards_retried"] == 2

    def test_shard_report_dict_includes_error_only_on_failure(self):
        clean = telemetry.ShardReport(
            shard=0, start=0, stop=4, seconds=0.1, attempts=1, source="computed"
        )
        assert "error" not in clean.as_dict()
        failed = telemetry.ShardReport(
            shard=1,
            start=4,
            stop=8,
            seconds=0.2,
            attempts=3,
            source="failed",
            error="boom",
        )
        assert failed.as_dict()["error"] == "boom"

    def test_stage_report_dict_shards_only_when_present(self):
        plain = telemetry.StageReport(
            stage="readout",
            seconds=0.1,
            source="computed",
            cache_hits=0,
            cache_misses=0,
        )
        assert "shards" not in plain.as_dict()
        sharded = telemetry.StageReport(
            stage="readout",
            seconds=0.1,
            source="computed",
            cache_hits=0,
            cache_misses=0,
            shards=(
                telemetry.ShardReport(
                    shard=0,
                    start=0,
                    stop=4,
                    seconds=0.1,
                    attempts=1,
                    source="computed",
                ),
            ),
            incomplete_shards=(2,),
        )
        row = sharded.as_dict()
        assert row["shards"][0]["shard"] == 0
        assert row["incomplete_shards"] == [2]


class TestConfigValidation:
    def test_rejects_bad_shard_settings(self):
        with pytest.raises(ClusteringError, match="readout_shards"):
            QSCConfig(readout_shards=0)
        with pytest.raises(ClusteringError, match="shard_timeout"):
            QSCConfig(shard_timeout=0.0)
        with pytest.raises(ClusteringError, match="shard_retries"):
            QSCConfig(shard_retries=-1)
        with pytest.raises(ClusteringError, match="shard_failure_mode"):
            QSCConfig(shard_failure_mode="panic")
        with pytest.raises(ClusteringError, match="shard_workers"):
            QSCConfig(shard_workers=0)

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), -1.0, True, "5"]
    )
    def test_shard_timeout_must_be_a_finite_positive_number(self, timeout):
        """A NaN deadline never fires (every ``now > deadline`` is false)."""
        with pytest.raises(ClusteringError, match="shard_timeout"):
            QSCConfig(shard_timeout=timeout)

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), 0.0, -1.0, True]
    )
    def test_supervisor_rejects_a_deadline_that_cannot_fire(self, timeout):
        with pytest.raises(ClusteringError, match="timeout"):
            ShardSupervisor(timeout=timeout)

    def test_integer_and_numpy_deadlines_are_accepted(self):
        assert QSCConfig(shard_timeout=5).shard_timeout == 5
        assert ShardSupervisor(timeout=np.float64(0.5)).timeout == 0.5

    @pytest.mark.parametrize(
        "option, value",
        [
            ("backoff_base", float("nan")),
            ("backoff_base", float("inf")),
            ("backoff_base", -0.1),
            ("backoff_base", True),
            ("backoff_cap", float("nan")),
            ("backoff_cap", -1.0),
            ("backoff_cap", None),
            ("poll_interval", 0.0),
            ("poll_interval", float("nan")),
            ("poll_interval", True),
            ("retries", 1.5),
            ("retries", True),
            ("max_workers", True),
            ("max_workers", 1.5),
        ],
    )
    def test_supervisor_rejects_settings_it_cannot_run_with(self, option, value):
        """Checked at construction: with a NaN backoff a failed task's retry
        time is NaN, so it is never retried and the run never returns."""
        with pytest.raises(ClusteringError, match=option):
            ShardSupervisor(**{option: value})

    def test_zero_backoff_and_numpy_counts_are_accepted(self):
        supervisor = ShardSupervisor(
            retries=np.int64(1),
            backoff_base=0,
            backoff_cap=0.0,
            max_workers=np.int64(2),
            poll_interval=np.float64(0.01),
        )
        assert (supervisor.retries, supervisor.max_workers) == (1, 2)
        assert supervisor.backoff(3) == 0.0

    def test_default_worker_cap_is_cpu_bound(self):
        """None caps in-flight workers at the core count, not shard count."""
        assert sharding.default_max_workers() == (os.cpu_count() or 1)

    def test_shard_knobs_stay_out_of_readout_fingerprint(self):
        """Re-sharding a resume is legal: the stage fingerprint ignores it."""
        graph, k, config = build_case("analytic_shots")
        from repro.pipeline.stages import _READOUT_FIELDS

        base = checkpoint.context_fingerprint(graph, config, k, _READOUT_FIELDS)
        resharded = checkpoint.context_fingerprint(
            graph,
            config.with_updates(
                readout_shards=4,
                shard_timeout=1.0,
                shard_retries=0,
                shard_workers=2,
            ),
            k,
            _READOUT_FIELDS,
        )
        assert base == resharded
