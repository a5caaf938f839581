"""Shared fixtures of the whole test suite.

Consolidates the helpers that used to be duplicated per directory so the
pipeline, store and service harnesses agree on one set of primitives:

* cross-directory imports — ``tests/pipeline`` goes on ``sys.path`` once,
  here, so any test can ``from test_golden import GOLDEN`` (the service
  tests reuse the fault-injection doubles of their neighbour
  ``tests/service/test_supervisor.py``);
* ``pristine_store`` / ``tmp_store`` — process-global content-store
  hygiene (detached + wiped around the test) and a disk-backed store in
  a temp directory;
* ``free_port`` — an ephemeral TCP port for subprocess servers (the
  in-process :class:`repro.service.harness.ServerThread` binds port 0
  itself and does not need this);
* ``wait_until`` — bounded polling for cross-process/thread conditions,
  the replacement for ad-hoc sleep loops around subprocess output.
"""

import pathlib
import socket
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "pipeline"))

from repro.store import configure_store, get_store  # noqa: E402


@pytest.fixture()
def pristine_store():
    """The process-wide store, detached and wiped around the test."""
    configure_store(root=None, enabled=True)
    get_store().clear_memory()
    yield get_store()
    configure_store(root=None, enabled=True)
    get_store().clear_memory()


@pytest.fixture()
def tmp_store(tmp_path, pristine_store):
    """A disk-backed process-wide store rooted in the test's tmp dir."""
    return configure_store(root=tmp_path / "cas-store")


@pytest.fixture()
def free_port():
    """An ephemeral TCP port that was free a moment ago.

    Subject to the usual bind/reuse race; fine for subprocess servers
    that bind immediately after.  In-process servers should bind port 0
    directly instead.
    """
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def wait_until():
    """``wait_until(predicate, timeout=, interval=)`` with a hard fail.

    Polls until ``predicate()`` is truthy and returns its value;
    raises ``AssertionError`` after ``timeout`` seconds — a bounded
    replacement for bare ``time.sleep`` synchronization.
    """

    def _wait(predicate, timeout=30.0, interval=0.01, message="condition"):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = predicate()
            if value:
                return value
            time.sleep(interval)
        raise AssertionError(f"timed out after {timeout:g}s waiting for {message}")

    return _wait
