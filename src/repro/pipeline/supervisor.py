"""Supervised execution of tasks: timeout, retry with backoff, cancel.

The job service (:mod:`repro.service.manager`) runs each job as one
task under a :class:`ShardSupervisor`.  The supervisor is deliberately
generic — it knows nothing about jobs, only about *tasks* (a picklable
function plus arguments, tagged with an index) and *executors* (how one
attempt of a task actually runs):

* :class:`InlineShardExecutor` runs the attempt synchronously in the
  calling process — zero overhead, used by deterministic fault-injection
  tests;
* :class:`ProcessShardExecutor` runs each attempt in a dedicated
  ``multiprocessing.Process`` with a pipe carrying the result back.  A
  worker that dies without reporting (crash, OOM kill) or overruns its
  deadline is detected by the supervisor, killed, and the attempt counts
  as failed.

Failure policy: each task gets ``1 + retries`` attempts with capped
exponential backoff between them (``min(backoff_base * 2**(attempt-1),
backoff_cap)`` seconds).  A task that exhausts its attempts aborts the
run with :class:`~repro.exceptions.ClusteringError`.

The supervisor never influences *what* a task computes: task payloads are
pure functions of their arguments, so scheduling, retries and executor
choice cannot change a single bit of a result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import is_count, is_deadline, is_seconds
from repro.exceptions import ClusteringError


#: Sleep between supervision sweeps while waiting on workers.
_POLL_SECONDS = 0.002


class SupervisorCancelled(ClusteringError):
    """A supervised run was stopped through its ``cancel`` event.

    Raised by :meth:`ShardSupervisor.run` when the caller-supplied cancel
    event is observed set between supervision sweeps.  In-flight attempts
    are killed before the exception propagates.
    """


@dataclass(frozen=True)
class ShardTask:
    """One unit of supervised work.

    Attributes
    ----------
    index:
        Task index; outcomes are reported under it.
    fn:
        Module-level callable computing the task payload.  Must be
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
        The task's index.
    value:
        ``fn(*args)`` of the successful attempt.
    attempts:
        How many attempts ran (successful or not).
    """

    index: int
    value: object
    attempts: int


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
    attempts).  Fault-injection tests wrap it to fail scheduled
    (task, attempt) pairs deterministically.
    """

    def submit(self, task: ShardTask, attempt: int) -> ShardHandle:
        try:
            return _CompletedHandle(value=task.fn(*task.args))
        except Exception as exc:  # noqa: BLE001 — fold into retry logic
            return _CompletedHandle(error=f"task {task.index}: {exc}")


def _process_entry(connection, fn, args) -> None:
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
                f"task {self._index}: worker died without a result "
                f"(exit code {self._process.exitcode})"
            )
        status, payload = self._message
        if status != "ok":
            raise ClusteringError(f"task {self._index}: {payload}")
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
    crashed.  Workers are daemonic, so a parent that exits normally
    terminates them (a parent killed outright does not).
    """

    def __init__(self):
        import multiprocessing

        self._context = multiprocessing.get_context()

    def submit(self, task: ShardTask, attempt: int) -> ShardHandle:
        parent, child = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_process_entry,
            args=(child, task.fn, task.args),
            daemon=True,
        )
        process.start()
        child.close()
        return _ProcessHandle(process, parent, task.index)


@dataclass
class _TaskState:
    """Supervisor-private bookkeeping of one task."""

    task: ShardTask
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class _Running:
    """Supervisor-private record of one in-flight attempt."""

    state: _TaskState
    handle: ShardHandle
    deadline: float | None = None


class ShardSupervisor:
    """Drive a set of tasks to completion under a retry policy.

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
    """

    def __init__(
        self,
        executor=None,
        *,
        timeout: float | None = None,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if not is_deadline(timeout):
            raise ClusteringError(
                f"timeout must be a finite positive number or None, got {timeout!r}"
            )
        if not is_count(retries, 0):
            raise ClusteringError(f"retries must be an integer >= 0, got {retries!r}")
        for name, value in (
            ("backoff_base", backoff_base),
            ("backoff_cap", backoff_cap),
        ):
            if not is_seconds(value, allow_zero=True):
                raise ClusteringError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )
        self.executor = executor if executor is not None else InlineShardExecutor()
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based failure count)."""
        return min(self.backoff_base * 2 ** (attempt - 1), self.backoff_cap)

    def run(self, tasks, *, on_attempt=None, cancel=None) -> dict[int, ShardOutcome]:
        """Supervise ``tasks`` to completion; outcomes keyed by task index.

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
                progressed |= self._sweep(pending, running, outcomes)
                if not progressed and (running or pending):
                    time.sleep(_POLL_SECONDS)
        except BaseException:
            for flight in running:
                flight.handle.kill()
            raise
        return outcomes

    def _launch(self, pending: list, running: list, on_attempt=None) -> bool:
        """Move eligible pending tasks into flight; True if any launched."""
        progressed = False
        now = time.monotonic()
        while pending:
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
            deadline = (
                None if self.timeout is None else time.monotonic() + self.timeout
            )
            running.append(_Running(eligible, handle, deadline))
            progressed = True
        return progressed

    def _sweep(self, pending: list, running: list, outcomes: dict) -> bool:
        """Collect finished/expired attempts; True if anything settled."""
        progressed = False
        now = time.monotonic()
        for flight in list(running):
            state = flight.state
            if flight.handle.done():
                running.remove(flight)
                try:
                    value = flight.handle.result()
                except ClusteringError as exc:
                    self._register_failure(state, str(exc), pending)
                else:
                    outcomes[state.task.index] = ShardOutcome(
                        index=state.task.index,
                        value=value,
                        attempts=state.attempts,
                    )
                progressed = True
            elif flight.deadline is not None and now > flight.deadline:
                running.remove(flight)
                flight.handle.kill()
                self._register_failure(
                    state,
                    f"task {state.task.index}: attempt {state.attempts} "
                    f"exceeded the {self.timeout:g}s timeout",
                    pending,
                )
                progressed = True
        return progressed

    def _register_failure(self, state: _TaskState, error: str, pending: list) -> None:
        """Requeue a failed attempt, or abort the run once it is exhausted."""
        if state.attempts <= self.retries:
            state.not_before = time.monotonic() + self.backoff(state.attempts)
            pending.append(state)
            return
        raise ClusteringError(
            f"task {state.task.index} failed after {state.attempts} "
            f"attempts: {error}"
        )
