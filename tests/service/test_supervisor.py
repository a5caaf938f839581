"""Supervised job execution: retries, timeouts, cancellation, crashes.

The contract under test (see ``repro/service/supervisor.py``): a job
gets ``1 + retries`` attempts with capped exponential backoff, a hung
attempt is killed at its deadline and retried, an exhausted job fails
with ``ClusteringError``, and a set cancel event kills whatever is in
flight or cuts a backoff short.  The job service runs every job under
this supervisor.

``FaultyJobExecutor`` is the deterministic fault-injection double: it
fails exactly the scheduled attempts — a "crash" is an attempt that dies
immediately, a "hang" an attempt that never finishes (detected only via
the supervisor's timeout) — and runs everything else inline.  The
service tests import it from here.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.exceptions import ClusteringError
from repro.service import supervisor as supervisor_module
from repro.service.supervisor import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    InlineJobExecutor,
    JobCancelled,
    JobHandle,
    JobSupervisor,
    ProcessJobExecutor,
    _CompletedHandle,
    backoff,
)


class _HungHandle(JobHandle):
    """An attempt that never completes; only a timeout can clear it."""

    def __init__(self):
        self.killed = False

    def done(self) -> bool:
        return False

    def result(self):
        raise AssertionError("a hung attempt has no result")

    def kill(self) -> None:
        self.killed = True


class FaultyJobExecutor:
    """Deterministic fault injection around the inline executor.

    ``schedule`` maps an attempt number (1-based) to ``"crash"`` (the
    attempt fails immediately) or ``"hang"`` (the attempt never
    finishes); unscheduled attempts run normally.  ``log`` records every
    submission as ``(attempt, mode)`` for assertions on the retry
    sequence.
    """

    def __init__(self, schedule=None):
        self.schedule = dict(schedule or {})
        self.inner = InlineJobExecutor()
        self.log = []
        self.hung = []

    def submit(self, fn, args) -> JobHandle:
        attempt = len(self.log) + 1
        mode = self.schedule.get(attempt, "ok")
        self.log.append((attempt, mode))
        if mode == "crash":
            return _CompletedHandle(error=f"injected crash (attempt {attempt})")
        if mode == "hang":
            handle = _HungHandle()
            self.hung.append(handle)
            return handle
        return self.inner.submit(fn, args)


def _always(mode, attempts=10):
    """A schedule failing every attempt."""
    return {attempt: mode for attempt in range(1, attempts + 1)}


# --- module-level job functions for the real process executor ----------
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


def _raise_in_worker(message):
    """Fail inside the worker, which reports the error over the pipe."""
    raise ValueError(message)


def _pair(left, right):
    return (left, right)


class TestSupervisor:
    def test_retries_after_crash(self):
        executor = FaultyJobExecutor({1: "crash"})
        supervisor = JobSupervisor(executor, retries=2)
        assert supervisor.run(lambda: "payload") == "payload"
        assert executor.log == [(1, "crash"), (2, "ok")]

    def test_raises_after_exhausting_retries(self):
        executor = FaultyJobExecutor(_always("crash"))
        supervisor = JobSupervisor(executor, retries=2)
        with pytest.raises(ClusteringError, match="failed after 3 attempts"):
            supervisor.run(lambda: "payload")
        assert [entry[0] for entry in executor.log] == [1, 2, 3]

    def test_timeout_kills_hung_attempt_then_retries(self):
        executor = FaultyJobExecutor({1: "hang"})
        supervisor = JobSupervisor(executor, timeout=0.02, retries=1)
        assert supervisor.run(lambda: "late") == "late"
        assert executor.log == [(1, "hang"), (2, "ok")]
        assert executor.hung[0].killed  # the expired attempt was killed

    def test_timeout_exhaustion_mentions_the_deadline(self):
        executor = FaultyJobExecutor(_always("hang"))
        supervisor = JobSupervisor(executor, timeout=0.01, retries=0)
        with pytest.raises(ClusteringError, match="timeout"):
            supervisor.run(lambda: None)

    def test_backoff_is_capped_exponential(self, monkeypatch):
        assert (BACKOFF_BASE, BACKOFF_CAP) == (0.01, 2.0)
        assert backoff(1) == pytest.approx(0.01)
        assert backoff(9) == pytest.approx(2.0)  # 2.56 capped
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(supervisor_module, "BACKOFF_CAP", 0.35)
        assert backoff(1) == pytest.approx(0.1)
        assert backoff(2) == pytest.approx(0.2)
        assert backoff(3) == pytest.approx(0.35)  # capped
        assert backoff(9) == pytest.approx(0.35)

    def test_on_attempt_fires_per_launch(self):
        executor = FaultyJobExecutor({1: "crash"})
        supervisor = JobSupervisor(executor, retries=2)
        launches = []
        supervisor.run(lambda: "payload", on_attempt=launches.append)
        # One callback per launch, attempt numbers 1-based — attempt 2 is
        # the restart the service layer reports as a restarted child.
        assert launches == [1, 2]

    def test_cancel_event_aborts_and_kills_in_flight(self):
        cancel = threading.Event()
        executor = FaultyJobExecutor(_always("hang"))
        supervisor = JobSupervisor(executor, retries=0)
        with pytest.raises(JobCancelled, match="during attempt 1"):
            supervisor.run(
                lambda: None,
                # Trip the cancel right after the attempt launches, so
                # the wait observes it with the attempt in flight.
                on_attempt=lambda attempt: cancel.set(),
                cancel=cancel,
            )
        assert executor.hung[0].killed

    def test_cancel_set_before_the_run_launches_nothing(self):
        cancel = threading.Event()
        cancel.set()
        executor = FaultyJobExecutor()
        supervisor = JobSupervisor(executor, retries=0)
        with pytest.raises(JobCancelled, match="before attempt 1"):
            supervisor.run(lambda: None, cancel=cancel)
        assert executor.log == []

    def test_cancel_during_a_backoff_ends_the_wait(self, monkeypatch):
        """The first attempt crashes and the cancel arrives while the
        supervisor backs off: the run raises at once, not after the
        backoff, and launches no second attempt."""
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 30.0)
        monkeypatch.setattr(supervisor_module, "BACKOFF_CAP", 30.0)
        cancel = threading.Event()
        timer = threading.Timer(0.1, cancel.set)
        executor = FaultyJobExecutor({1: "crash"})
        supervisor = JobSupervisor(executor, retries=1)
        start = time.monotonic()
        try:
            with pytest.raises(JobCancelled, match="backing off"):
                supervisor.run(
                    lambda: "never",
                    on_attempt=lambda attempt: timer.start(),
                    cancel=cancel,
                )
        finally:
            timer.cancel()
        assert time.monotonic() - start < 5.0
        assert executor.log == [(1, "crash")]

    def test_a_raising_task_is_retried_like_a_crash(self):
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("first call fails")
            return "second call succeeds"

        supervisor = JobSupervisor(retries=1)
        assert supervisor.run(flaky) == "second call succeeds"
        assert len(calls) == 2

    def test_exhaustion_reports_the_task_error(self):
        def broken():
            raise ValueError("bad input row")

        supervisor = JobSupervisor(retries=0)
        with pytest.raises(ClusteringError, match="1 attempts: bad input row"):
            supervisor.run(broken)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ClusteringError, match="timeout"):
            JobSupervisor(timeout=0.0)
        with pytest.raises(ClusteringError, match="retries"):
            JobSupervisor(retries=-1)


class TestProcessExecutorCrashes:
    """Real worker processes that die WITHOUT reporting.

    ``os._exit(1)`` closes the result pipe with no payload — exactly what
    a segfault or an OOM kill looks like to the supervisor.  The pipe-EOF
    must surface as the retryable "worker died without a result"
    ClusteringError, not as a raw EOFError escaping the supervision loop.
    """

    def test_hard_crash_is_retried(self, tmp_path):
        supervisor = JobSupervisor(ProcessJobExecutor(), retries=2)
        launches = []
        value = supervisor.run(
            _exit_first_attempt,
            (str(tmp_path / "mark"), "payload"),
            on_attempt=launches.append,
        )
        assert value == "payload"
        assert launches == [1, 2]

    def test_worker_pipes_back_the_payload(self):
        supervisor = JobSupervisor(ProcessJobExecutor(), retries=0)
        assert supervisor.run(_pair, ("left", [1, 2])) == ("left", [1, 2])

    def test_worker_exception_is_reported_not_a_crash(self):
        supervisor = JobSupervisor(ProcessJobExecutor(), retries=0)
        with pytest.raises(ClusteringError, match="raised in the worker") as info:
            supervisor.run(_raise_in_worker, ("raised in the worker",))
        assert "died without a result" not in str(info.value)

    def test_hard_crash_exhaustion_raises_clustering_error(self):
        supervisor = JobSupervisor(ProcessJobExecutor(), retries=0)
        with pytest.raises(ClusteringError, match="died without a result"):
            supervisor.run(_hard_exit)


#: A server stand-in: under the start method named in ``argv[1]`` it owns
#: an executor whose worker sleeps, prints the worker's pid once the
#: worker's watchdog thread runs, and then waits to be killed.
_OWNER_SCRIPT = """
import multiprocessing, os, sys, time
from repro.service.supervisor import ProcessJobExecutor
multiprocessing.set_start_method(sys.argv[1])
handle = ProcessJobExecutor().submit(time.sleep, (60,))
pid = handle._process.pid
deadline = time.monotonic() + 10
while time.monotonic() < deadline:
    try:
        if len(os.listdir(f"/proc/{pid}/task")) >= 2:
            break
    except OSError:
        break
    time.sleep(0.01)
print(pid, flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
class TestWorkerDiesWithItsParent:
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_sigkilled_parent_takes_its_worker_down(self, method, wait_until):
        """A SIGKILLed server cannot terminate its daemonic workers; each
        worker must notice it was orphaned and exit by itself — and only
        then: a worker whose parent lives keeps running."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER_SCRIPT, method],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            worker = int(owner.stdout.readline())
            # The watchdog runs; give a wrong parent check time to fire.
            time.sleep(0.5)
            assert _running(worker), "the worker exited while its parent lived"
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        try:
            wait_until(
                lambda: not _running(worker),
                timeout=2.0,
                message="the orphaned worker to exit",
            )
        finally:
            if _running(worker):
                os.kill(worker, signal.SIGKILL)


class TestConfigValidation:
    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0, True])
    def test_supervisor_rejects_a_deadline_that_cannot_fire(self, timeout):
        """A NaN deadline never fires (every ``now > deadline`` is false)."""
        with pytest.raises(ClusteringError, match="timeout"):
            JobSupervisor(timeout=timeout)

    def test_integer_and_numpy_deadlines_are_accepted(self):
        assert JobSupervisor(timeout=5).timeout == 5
        assert JobSupervisor(timeout=np.float64(0.5)).timeout == 0.5

    @pytest.mark.parametrize("option, value", [("retries", 1.5), ("retries", True)])
    def test_supervisor_rejects_settings_it_cannot_run_with(self, option, value):
        """Checked at construction: a bool or a fraction is not a count."""
        with pytest.raises(ClusteringError, match=option):
            JobSupervisor(**{option: value})

    def test_numpy_counts_are_accepted(self):
        assert JobSupervisor(retries=np.int64(1)).retries == 1
