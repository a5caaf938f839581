"""Supervised execution of one job: timeout, retry with backoff, cancel.

The job manager (:mod:`repro.service.manager`) runs each job under its
own :class:`JobSupervisor`.  The supervisor knows nothing about sweeps,
only about one picklable function call and an *executor* (how one
attempt of that call actually runs):

* :class:`InlineJobExecutor` runs the attempt synchronously in the
  calling process — zero overhead, used by deterministic fault-injection
  tests;
* :class:`ProcessJobExecutor` runs each attempt in a dedicated
  ``multiprocessing.Process`` with a pipe carrying the result back.  A
  worker that dies without reporting (crash, OOM kill) or overruns its
  deadline is detected by the supervisor, killed, and the attempt counts
  as failed.

Failure policy: a job gets ``1 + retries`` attempts with capped
exponential backoff between them (``min(BACKOFF_BASE * 2**(attempt-1),
BACKOFF_CAP)`` seconds).  A job that exhausts its attempts fails with
:class:`~repro.exceptions.ClusteringError`.  A set cancel event is seen
both while an attempt runs (the attempt is killed) and during a backoff.

The supervisor never influences *what* a job computes: the function is
pure in its arguments, so retries and executor choice cannot change a
single bit of a result.
"""

from __future__ import annotations

import threading
import time

from repro.core.config import is_count, is_deadline
from repro.exceptions import ClusteringError

#: Backoff before retry ``a`` is ``min(BACKOFF_BASE * 2**(a-1), BACKOFF_CAP)``.
BACKOFF_BASE = 0.01
BACKOFF_CAP = 2.0

#: Sleep between checks while an attempt runs.
_POLL_SECONDS = 0.002


class JobCancelled(ClusteringError):
    """A supervised job was stopped through its ``cancel`` event.

    Raised by :meth:`JobSupervisor.run` when the cancel event is seen set,
    during an attempt or a backoff.  An in-flight attempt is killed before
    the exception propagates.
    """


class JobHandle:
    """One in-flight attempt of a job; executors return these."""

    def done(self) -> bool:
        """Whether the attempt has finished (successfully or not)."""
        raise NotImplementedError

    def result(self):
        """The attempt's value; raises ``ClusteringError`` on a failure."""
        raise NotImplementedError

    def kill(self) -> None:
        """Stop the attempt (timeout and cancel enforcement); idempotent."""
        raise NotImplementedError


class _CompletedHandle(JobHandle):
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


class InlineJobExecutor:
    """Run each attempt synchronously in the calling process.

    ``submit`` blocks until the attempt finishes, so neither a timeout
    nor a cancel can interrupt it; both are seen only between attempts.
    Fault-injection tests wrap it to fail scheduled attempts.
    """

    def submit(self, fn, args) -> JobHandle:
        try:
            return _CompletedHandle(value=fn(*args))
        except Exception as exc:  # noqa: BLE001 — fold into retry logic
            return _CompletedHandle(error=str(exc))


def _process_entry(connection, fn, args) -> None:
    """Worker-process entry point: run the job, pipe back the outcome.

    A watchdog thread ends the worker at once when the process that
    started it is gone, so a killed server leaves no worker computing
    behind it.
    """
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        connection.send(("ok", fn(*args)))
    except Exception as exc:  # noqa: BLE001 — report instead of dying silent
        connection.send(("error", str(exc)))
    finally:
        connection.close()


def _exit_with_parent() -> None:
    # The parent sentinel turns ready when the starting process exits, under
    # every start method; ``os.getppid()`` would name the fork server instead
    # under "forkserver".
    import multiprocessing
    import multiprocessing.connection
    import os

    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


class _ProcessHandle(JobHandle):
    """Handle over an attempt running in a dedicated worker process."""

    def __init__(self, process, connection):
        self._process = process
        self._connection = connection
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
                f"worker died without a result "
                f"(exit code {self._process.exitcode})"
            )
        status, payload = self._message
        if status != "ok":
            raise ClusteringError(payload)
        return payload

    def kill(self) -> None:
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._connection.close()


class ProcessJobExecutor:
    """Run each attempt in its own ``multiprocessing.Process``.

    One process per *attempt*, not a long-lived pool: a crashed or hung
    worker can be killed and retried without poisoning shared state.
    Results travel over a ``Pipe``; a worker that exits without sending
    is treated as crashed.  Workers are daemonic, so a parent that exits
    normally terminates them, and each worker exits by itself as soon as
    a parent killed outright is gone.
    """

    def __init__(self):
        import multiprocessing

        self._context = multiprocessing.get_context()

    def submit(self, fn, args) -> JobHandle:
        parent, child = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_process_entry, args=(child, fn, args), daemon=True
        )
        process.start()
        child.close()
        return _ProcessHandle(process, parent)


def backoff(attempt: int) -> float:
    """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
    return min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_CAP)


class JobSupervisor:
    """Drive one job to a value under a retry policy.

    Parameters
    ----------
    executor:
        How attempts run — :class:`InlineJobExecutor` (the default),
        :class:`ProcessJobExecutor`, or any object with the same
        ``submit(fn, args) -> JobHandle`` contract.
    timeout:
        Per-attempt deadline in seconds; ``None`` disables it.  Enforced
        by killing the attempt's handle — only meaningful for executors
        whose handles can actually be interrupted (the process executor).
    retries:
        Extra attempts after the first failure (``retries=2`` means up to
        three attempts).
    """

    def __init__(
        self, executor=None, *, timeout: float | None = None, retries: int = 2
    ):
        if not is_deadline(timeout):
            raise ClusteringError(
                f"timeout must be a finite positive number or None, got {timeout!r}"
            )
        if not is_count(retries, 0):
            raise ClusteringError(f"retries must be an integer >= 0, got {retries!r}")
        self.executor = executor if executor is not None else InlineJobExecutor()
        self.timeout = timeout
        self.retries = retries

    def run(self, fn, args=(), *, on_attempt=None, cancel=None):
        """``fn(*args)`` of the first attempt that succeeds.

        ``on_attempt(attempt)`` fires as each attempt launches
        (``attempt >= 2`` means a crashed or expired worker was
        restarted); it must be cheap and must not raise.  ``cancel`` is
        an optional ``threading.Event``; once it is set the supervisor
        kills the in-flight attempt, or cuts a backoff short, and raises
        :class:`JobCancelled`.  Cancellation is best-effort — an attempt
        that finishes before the event is seen still returns its value.
        """
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                delay = backoff(attempt - 1)
                if cancel is None:
                    time.sleep(delay)
                elif cancel.wait(delay):
                    raise JobCancelled(
                        f"job cancelled while backing off before attempt {attempt}"
                    )
            if cancel is not None and cancel.is_set():
                raise JobCancelled(f"job cancelled before attempt {attempt}")
            if on_attempt is not None:
                on_attempt(attempt)
            handle = self.executor.submit(fn, args)
            error = self._wait(handle, attempt, cancel)
            if error is None:
                try:
                    return handle.result()
                except ClusteringError as exc:
                    error = str(exc)
        raise ClusteringError(f"job failed after {attempt} attempts: {error}")

    def _wait(self, handle: JobHandle, attempt: int, cancel) -> str | None:
        """Wait until one attempt is done; the timeout's message if it expired."""
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        try:
            while not handle.done():
                if cancel is not None and cancel.is_set():
                    raise JobCancelled(f"job cancelled during attempt {attempt}")
                if deadline is not None and time.monotonic() > deadline:
                    handle.kill()
                    return f"attempt {attempt} exceeded the {self.timeout:g}s timeout"
                time.sleep(_POLL_SECONDS)
        except BaseException:
            handle.kill()
            raise
        return None
