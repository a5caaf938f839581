"""Service test harness: in-process servers on ephemeral ports.

Each test boots a :class:`repro.service.harness.ServerThread` — the job
server's event loop on a background thread, bound to port 0 — and talks
to it over real sockets with the blocking client, so the full wire path
is exercised without subprocess boots or an async test framework.

Fault injection composes with the supervisor doubles of
``test_supervisor``: pass ``executor_factory=InlineJobExecutor`` to run
jobs inside this process (where ``monkeypatch`` can break a pipeline
stage), or a faulty/hanging executor (``FaultyJobExecutor``) to
exercise the per-job supervision itself.

All servers run under the shared ``pristine_store`` bracket: inline job
execution configures the process-global store, and the bracket keeps
that from leaking across tests.
"""

import pytest

from repro.service.harness import ServerThread

#: A deliberately tiny fig1 job: one strength, 18 nodes, 64 shots — the
#: full six-method panel in well under a second, so lifecycle tests can
#: afford several computed jobs.
SMALL_FIG1 = {
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


@pytest.fixture()
def small_fig1_job():
    """A fresh copy of the tiny fig1 job (tests may mutate overrides)."""
    return {
        "experiment": SMALL_FIG1["experiment"],
        "trials": SMALL_FIG1["trials"],
        "overrides": dict(SMALL_FIG1["overrides"]),
    }


@pytest.fixture()
def service_server(pristine_store):
    """Factory fixture: ``service_server(**JobServer kwargs)`` → harness.

    Servers are stopped (jobs cancelled, actors joined) on teardown in
    reverse boot order.
    """
    servers = []

    def _start(**kwargs):
        server = ServerThread(**kwargs).start()
        servers.append(server)
        return server

    yield _start
    for server in reversed(servers):
        server.stop()
