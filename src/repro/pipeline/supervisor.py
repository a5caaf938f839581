"""Supervised execution of shard tasks: timeout, retry, graceful degradation.

The sharded readout stage (:mod:`repro.pipeline.sharding`) splits its rows
into independent tasks and hands them to a :class:`ShardSupervisor`.  The
supervisor is deliberately generic — it knows nothing about readout, only
about *tasks* (a picklable function plus arguments, tagged with a shard
index) and *executors* (how one attempt of a task actually runs):

* :class:`InlineShardExecutor` runs the attempt synchronously in the
  calling process — zero overhead, used for ``shard_count == 1`` and for
  deterministic fault-injection tests;
* :class:`ProcessShardExecutor` runs each attempt in a dedicated
  ``multiprocessing.Process`` with a pipe carrying the result back.  A
  worker that dies without reporting (crash, OOM kill) or overruns its
  deadline is detected by the supervisor, killed, and the attempt counts
  as failed.

Failure policy: each task gets ``1 + retries`` attempts with capped
exponential backoff between them (``min(backoff_base * 2**(attempt-1),
backoff_cap)`` seconds).  When a task exhausts its attempts the supervisor
either raises :class:`~repro.exceptions.ClusteringError` (``on_failure=
"raise"``, the default) or records the task as failed and keeps going
(``on_failure="degrade"`` — the caller receives partial results plus an
explicit list of incomplete shards, the reliability-over-throughput mode).

Determinism: the supervisor never influences *what* a task computes — task
payloads are pure functions of their arguments (each readout shard owns
its own RNG streams), and callers merge outcomes in shard-index order, so
scheduling, concurrency, retries and even executor choice cannot change a
single bit of the merged result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import SHARD_FAILURE_MODES as FAILURE_MODES
from repro.core.config import is_deadline
from repro.exceptions import ClusteringError


class SupervisorCancelled(ClusteringError):
    """A supervised run was stopped through its ``cancel`` event.

    Raised by :meth:`ShardSupervisor.run` when the caller-supplied cancel
    event is observed set between supervision sweeps.  In-flight attempts
    are killed before the exception propagates; work that already
    completed (and was checkpointed via ``on_complete``) is untouched, so
    a cancelled run resumes from its surviving shard checkpoints.
    """


@dataclass(frozen=True)
class ShardTask:
    """One unit of supervised work.

    Attributes
    ----------
    index:
        Shard index — the merge key; outcomes are reported under it.
    fn:
        Module-level callable computing the shard payload.  Must be
        picklable for :class:`ProcessShardExecutor`.
    args:
        Positional arguments for ``fn`` (picklable likewise).
    """

    index: int
    fn: object
    args: tuple = ()


@dataclass(frozen=True)
class ShardOutcome:
    """Terminal state of one supervised task.

    Attributes
    ----------
    index:
        The task's shard index.
    value:
        ``fn(*args)`` of the successful attempt, or ``None`` if the task
        failed (``on_failure="degrade"`` only).
    attempts:
        How many attempts ran (successful or not).
    seconds:
        Wall time summed over all attempts (excludes backoff sleeps).
    failed:
        ``True`` when every attempt failed and degradation kept the run
        alive.
    error:
        Message of the last failure (timeout, crash, or raised exception);
        ``None`` for clean successes.
    """

    index: int
    value: object
    attempts: int
    seconds: float
    failed: bool = False
    error: str | None = None


class ShardHandle:
    """One in-flight attempt of a task; executors return these."""

    def done(self) -> bool:
        """Whether the attempt has finished (successfully or not)."""
        raise NotImplementedError

    def result(self):
        """The attempt's payload; raises on crash or task exception."""
        raise NotImplementedError

    def kill(self) -> None:
        """Stop the attempt (timeout enforcement); idempotent."""
        raise NotImplementedError


class _CompletedHandle(ShardHandle):
    """Handle over an attempt that already ran (inline execution)."""

    def __init__(self, value=None, error: str | None = None):
        self._value = value
        self._error = error

    def done(self) -> bool:
        return True

    def result(self):
        if self._error is not None:
            raise ClusteringError(self._error)
        return self._value

    def kill(self) -> None:  # nothing to stop — the attempt already ran
        pass


class InlineShardExecutor:
    """Run each attempt synchronously in the calling process.

    The degenerate executor: ``submit`` blocks until the attempt finishes,
    so timeouts cannot interrupt it (a deadline is only checked between
    attempts).  Used when ``shard_count == 1`` — one shard gains nothing
    from a worker process — and by fault-injection tests, which subclass
    or wrap it to fail scheduled (shard, attempt) pairs deterministically.
    """

    def submit(self, task: ShardTask, attempt: int) -> ShardHandle:
        try:
            return _CompletedHandle(value=task.fn(*task.args))
        except Exception as exc:  # noqa: BLE001 — fold into retry logic
            return _CompletedHandle(error=f"shard {task.index}: {exc}")


def _process_shard_entry(connection, fn, args) -> None:
    """Worker-process entry point: run the task, pipe back the outcome."""
    try:
        connection.send(("ok", fn(*args)))
    except Exception as exc:  # noqa: BLE001 — report instead of dying silent
        connection.send(("error", str(exc)))
    finally:
        connection.close()


class _ProcessHandle(ShardHandle):
    """Handle over an attempt running in a dedicated worker process."""

    def __init__(self, process, connection, index: int):
        self._process = process
        self._connection = connection
        self._index = index
        self._message = None
        self._pipe_dead = False

    def _drain(self) -> None:
        if self._message is not None or self._pipe_dead:
            return
        if self._connection.poll():
            try:
                self._message = self._connection.recv()
            except (EOFError, OSError):
                # The pipe hit EOF with no payload: the worker died before
                # it could report (segfault, kill signal, OOM) — poll()
                # returns True at EOF, so recv() raising here IS the crash
                # signal.  Leave _message unset; result() turns it into
                # the "worker died without a result" ClusteringError that
                # the supervisor's retry path handles.
                self._pipe_dead = True

    def done(self) -> bool:
        self._drain()
        return self._message is not None or not self._process.is_alive()

    def result(self):
        self._drain()
        self._process.join()
        if self._message is None:
            # The worker died without reporting — a hard crash (segfault,
            # kill signal, OOM), indistinguishable from pulling the plug.
            raise ClusteringError(
                f"shard {self._index}: worker died without a result "
                f"(exit code {self._process.exitcode})"
            )
        status, payload = self._message
        if status != "ok":
            raise ClusteringError(f"shard {self._index}: {payload}")
        return payload

    def kill(self) -> None:
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._connection.close()


class ProcessShardExecutor:
    """Run each attempt in its own ``multiprocessing.Process``.

    One process per *attempt*, not a long-lived pool: a crashed or hung
    worker can be killed and retried without poisoning shared state, which
    is exactly the supervision model the work queue needs.  Results travel
    over a ``Pipe``; a worker that exits without sending is treated as
    crashed.
    """

    def __init__(self, mp_context=None, *, daemon: bool = True):
        if mp_context is None:
            import multiprocessing

            mp_context = multiprocessing.get_context()
        self._context = mp_context
        # Daemonic workers die with the parent (the safe default), but a
        # daemonic process cannot spawn children of its own — the service
        # layer passes ``daemon=False`` so a supervised job worker can run
        # a sharded readout (which forks shard workers) inside itself.
        self._daemon = daemon

    def submit(self, task: ShardTask, attempt: int) -> ShardHandle:
        parent, child = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_process_shard_entry,
            args=(child, task.fn, task.args),
            daemon=self._daemon,
        )
        process.start()
        child.close()
        return _ProcessHandle(process, parent, task.index)


@dataclass
class _TaskState:
    """Supervisor-private bookkeeping of one task."""

    task: ShardTask
    attempts: int = 0
    seconds: float = 0.0
    not_before: float = 0.0
    last_error: str | None = None


@dataclass
class _Running:
    """Supervisor-private record of one in-flight attempt."""

    state: _TaskState
    handle: ShardHandle
    started: float
    deadline: float | None = field(default=None)


class ShardSupervisor:
    """Drive a set of shard tasks to completion under a failure policy.

    Parameters
    ----------
    executor:
        How attempts run — :class:`InlineShardExecutor`,
        :class:`ProcessShardExecutor`, or any object with the same
        ``submit(task, attempt) -> ShardHandle`` contract.
    timeout:
        Per-attempt deadline in seconds; ``None`` disables it.  Enforced
        by killing the attempt's handle — only meaningful for executors
        whose handles can actually be interrupted (the process executor).
    retries:
        Extra attempts after the first failure (``retries=2`` means up to
        three attempts per task).
    backoff_base / backoff_cap:
        Capped exponential backoff between attempts of the same task:
        attempt ``a`` waits ``min(backoff_base * 2**(a-1), backoff_cap)``
        seconds after failure ``a``.
    max_workers:
        Concurrent in-flight attempts; ``None`` runs every pending task
        at once.
    on_failure:
        ``"raise"`` aborts the whole run on the first exhausted task;
        ``"degrade"`` records it as failed and returns partial outcomes.
    poll_interval:
        Sleep between supervision sweeps while waiting on workers.
    """

    def __init__(
        self,
        executor=None,
        *,
        timeout: float | None = None,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_workers: int | None = None,
        on_failure: str = "raise",
        poll_interval: float = 0.002,
    ):
        if not is_deadline(timeout):
            raise ClusteringError(
                f"timeout must be a finite positive number or None, got {timeout!r}"
            )
        if retries < 0:
            raise ClusteringError(f"retries must be >= 0, got {retries}")
        if on_failure not in FAILURE_MODES:
            raise ClusteringError(
                f"on_failure must be one of {FAILURE_MODES}, got {on_failure!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ClusteringError(
                f"max_workers must be >= 1 or None, got {max_workers}"
            )
        self.executor = executor if executor is not None else InlineShardExecutor()
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_workers = max_workers
        self.on_failure = on_failure
        self.poll_interval = poll_interval

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based failure count)."""
        return min(self.backoff_base * 2 ** (attempt - 1), self.backoff_cap)

    def run(
        self, tasks, on_complete=None, *, on_attempt=None, cancel=None
    ) -> dict[int, ShardOutcome]:
        """Supervise ``tasks`` to completion; outcomes keyed by shard index.

        ``on_complete(outcome)`` fires the moment a task *succeeds* — the
        sharded readout checkpoints each shard there, so completed work
        survives even when a later task aborts the whole run.

        ``on_attempt(index, attempt)`` fires as each attempt launches
        (``attempt >= 2`` means a crashed or expired child was restarted);
        it must be cheap and must not raise.  ``cancel`` is an optional
        event object (``threading.Event`` contract: ``is_set()``); when it
        is observed set between sweeps the supervisor kills every
        in-flight attempt and raises :class:`SupervisorCancelled`.
        Cancellation is best-effort — a run whose last task settles before
        the event is observed completes normally.
        """
        pending = [_TaskState(task) for task in tasks]
        running: list[_Running] = []
        outcomes: dict[int, ShardOutcome] = {}
        try:
            while pending or running:
                if cancel is not None and cancel.is_set():
                    raise SupervisorCancelled(
                        f"supervised run cancelled with {len(pending)} pending "
                        f"and {len(running)} in-flight task(s)"
                    )
                progressed = self._launch(pending, running, on_attempt)
                progressed |= self._sweep(pending, running, outcomes, on_complete)
                if not progressed and (running or pending):
                    time.sleep(self.poll_interval)
        except BaseException:
            for flight in running:
                flight.handle.kill()
            raise
        return outcomes

    def _launch(self, pending: list, running: list, on_attempt=None) -> bool:
        """Move eligible pending tasks into flight; True if any launched."""
        progressed = False
        now = time.monotonic()
        while pending and (
            self.max_workers is None or len(running) < self.max_workers
        ):
            eligible = next(
                (state for state in pending if state.not_before <= now), None
            )
            if eligible is None:
                break
            pending.remove(eligible)
            eligible.attempts += 1
            if on_attempt is not None:
                on_attempt(eligible.task.index, eligible.attempts)
            handle = self.executor.submit(eligible.task, eligible.attempts)
            started = time.monotonic()
            deadline = None if self.timeout is None else started + self.timeout
            running.append(_Running(eligible, handle, started, deadline))
            progressed = True
        return progressed

    def _sweep(
        self, pending: list, running: list, outcomes: dict, on_complete=None
    ) -> bool:
        """Collect finished/expired attempts; True if anything settled."""
        progressed = False
        now = time.monotonic()
        for flight in list(running):
            state = flight.state
            if flight.handle.done():
                running.remove(flight)
                state.seconds += time.monotonic() - flight.started
                try:
                    value = flight.handle.result()
                except ClusteringError as exc:
                    self._register_failure(state, str(exc), pending, outcomes)
                else:
                    outcome = ShardOutcome(
                        index=state.task.index,
                        value=value,
                        attempts=state.attempts,
                        seconds=state.seconds,
                    )
                    outcomes[state.task.index] = outcome
                    if on_complete is not None:
                        on_complete(outcome)
                progressed = True
            elif flight.deadline is not None and now > flight.deadline:
                running.remove(flight)
                state.seconds += time.monotonic() - flight.started
                flight.handle.kill()
                self._register_failure(
                    state,
                    f"shard {state.task.index}: attempt {state.attempts} "
                    f"exceeded the {self.timeout:g}s timeout",
                    pending,
                    outcomes,
                )
                progressed = True
        return progressed

    def _register_failure(
        self, state: _TaskState, error: str, pending: list, outcomes: dict
    ) -> None:
        """Requeue a failed attempt, or settle the task per ``on_failure``."""
        state.last_error = error
        if state.attempts <= self.retries:
            state.not_before = time.monotonic() + self.backoff(state.attempts)
            pending.append(state)
            return
        if self.on_failure == "raise":
            raise ClusteringError(
                f"shard {state.task.index} failed after {state.attempts} "
                f"attempts: {error}"
            )
        outcomes[state.task.index] = ShardOutcome(
            index=state.task.index,
            value=None,
            attempts=state.attempts,
            seconds=state.seconds,
            failed=True,
            error=error,
        )
