"""CI service smoke: boot a real ``repro serve`` subprocess, prove identity.

The in-process tests (``tests/service/``) exercise the full wire path but
share the interpreter with the server.  This script is the cold-boot
check CI runs on every push:

1. launch ``python -m repro serve --port 0 --store-dir <tmp>`` as a real
   subprocess and parse the ephemeral port from its readiness line;
2. submit a one-trial fig1 job over the JSON-line protocol, stream its
   full event transcript, and fetch the finished artifact;
3. run the same sweep through ``python -m repro experiments`` and assert
   the served records are identical to the CLI artifact's;
4. write the streamed transcript to ``service-transcript.jsonl`` (CI
   uploads it as a build artifact) and shut the server down cleanly;
5. run the **restart drill**: a second server (``--max-queued 1``) gets
   a twelve-fit job plus a queued one, sheds a third submission with the
   retryable ``rejected`` error (``retry_after`` intact), is SIGKILLed the moment the
   first stage checkpoint lands, and is rebooted on the same store — it
   must report ``recovered 2 job(s)``, finish both, serve at least one
   stage from the checkpoints its previous life published, and serve
   records identical to a direct in-process
   :class:`~repro.experiments.runner.SweepRunner` run.

Run from the repository root::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

from repro.experiments.runner import (
    SweepRunner,
    spec_from_job,
    validate_artifact,
    validate_artifact_file,
)
from repro.service.client import ServiceClient
from repro.service.errors import RejectedError

READY_PREFIX = "repro serve: listening on "
RECOVERED_PREFIX = "repro serve: recovered "
BOOT_TIMEOUT = 60.0

SMOKE_JOB = {"experiment": "fig1", "trials": 1}

#: The restart drill's in-flight job: twelve quantum fits, sized so the
#: SIGKILL (triggered by the first stage checkpoint) lands mid-job.
DRILL_JOB = {
    "experiment": "fig1",
    "trials": 2,
    "overrides": {
        "strengths": [0.9, 0.7, 0.5, 0.3, 0.1, 0.0],
        "num_nodes": 48,
        "num_clusters": 2,
        "shots": 256,
        "precision_bits": 6,
    },
}

#: The restart drill's queued job: tiny, waits behind the drill job.
QUEUED_JOB = {
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


def boot_server(
    store_dir: str, *extra_flags: str
) -> tuple[subprocess.Popen, str, int, int]:
    """Start the serve subprocess; return (process, host, port, recovered)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--store-dir",
            store_dir,
            *extra_flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    recovered = 0
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise SystemExit(
                f"server exited during boot (code {process.returncode})"
            )
        if line.startswith(RECOVERED_PREFIX):
            recovered = int(line[len(RECOVERED_PREFIX) :].split()[0])
        if line.startswith(READY_PREFIX):
            host, _, port = line[len(READY_PREFIX) :].strip().rpartition(":")
            return process, host, int(port), recovered
    process.kill()
    raise SystemExit(f"server not ready within {BOOT_TIMEOUT:g}s")


def wait_for(predicate, timeout: float, what: str):
    """Poll until ``predicate()`` is truthy; SystemExit on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise SystemExit(f"timed out after {timeout:g}s waiting for {what}")


def restart_drill(tmp: str) -> None:
    """kill -9 mid-job, reboot, finish record-identically."""
    store = pathlib.Path(tmp) / "drill-store"
    stage_dir = store / "stage"
    process, host, port, recovered = boot_server(
        str(store), "--workers", "1", "--max-queued", "1"
    )
    try:
        assert recovered == 0, f"fresh store recovered {recovered} jobs"
        client = ServiceClient(host, port, timeout=600.0)
        big = client.submit(DRILL_JOB)["job"]
        wait_for(
            lambda: client.status(big)["state"] == "running",
            30.0,
            "the drill job to start",
        )
        queued = client.submit(QUEUED_JOB)["job"]

        # Backpressure: the queue is at --max-queued, so a third
        # submission sheds with the retryable rejection — and the two
        # accepted jobs must still finish (proven after the restart).
        try:
            client.submit(QUEUED_JOB)
        except RejectedError as error:
            assert error.retryable and error.retry_after == 5, vars(error)
            print(f"backpressure OK: shed with retry_after={error.retry_after}")
        else:
            raise SystemExit("over-quota submission was not shed")

        wait_for(
            lambda: stage_dir.is_dir() and any(stage_dir.rglob("*.cas")),
            120.0,
            "the first stage checkpoint",
        )
    finally:
        process.kill()  # SIGKILL: no goodbye, no flush, no cleanup
        process.wait(30)
    print("killed the server mid-job (first stage checkpoint on disk)")

    process, host, port, recovered = boot_server(str(store), "--workers", "1")
    try:
        assert recovered == 2, f"expected 2 recovered jobs, got {recovered}"
        client = ServiceClient(host, port, timeout=600.0)
        for job_id in (big, queued):
            wait_for(
                lambda job_id=job_id: client.status(job_id)["state"]
                == "completed",
                300.0,
                f"recovered job {job_id} to complete",
            )
        transcript = client.events(big)
        kinds = [event["event"] for event in transcript]
        assert "recovered" in kinds, f"no recovered event: {kinds}"
        loaded = {
            event["stage"]: event["loaded"]
            for event in transcript
            if event["event"] == "stage"
        }
        assert loaded.get("laplacian", 0) >= 1, (
            f"the recovered job served no checkpointed stage: {loaded}"
        )
        served = client.artifact(big)
        validate_artifact(served)
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(30)
        except subprocess.TimeoutExpired:
            process.kill()

    direct = SweepRunner(spec_from_job(DRILL_JOB), jobs=1).run()
    assert served["records"] == direct.to_artifact()["records"], (
        "records of the killed-and-recovered job differ from a direct run"
    )
    print(
        f"restart drill OK: recovered 2 jobs, laplacian served "
        f"{loaded['laplacian']} time(s), {len(served['records'])} "
        "records bit-identical to the direct run"
    )


def main() -> int:
    transcript_path = pathlib.Path("service-transcript.jsonl")
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        process, host, port, _ = boot_server(f"{tmp}/store")
        try:
            client = ServiceClient(host, port, timeout=600.0)
            assert client.ping(), "server did not answer ping"
            submitted = client.submit(SMOKE_JOB)
            print(f"submitted {submitted['job']} ({submitted['fingerprint']})")

            transcript = client.events(submitted["job"])
            transcript_path.write_text(
                "".join(json.dumps(event) + "\n" for event in transcript),
                encoding="utf-8",
            )
            kinds = [event["event"] for event in transcript]
            print(f"transcript ({len(transcript)} events): {' '.join(kinds)}")
            assert kinds[-1] == "completed", f"job ended {kinds[-1]!r}"
            assert "stage" in kinds, "no stage telemetry was streamed"

            served = client.artifact(submitted["job"])
            validate_artifact(served)
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(30)
            except subprocess.TimeoutExpired:
                process.kill()

        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "experiments",
                "--only",
                "fig1",
                "--trials",
                "1",
                "--jobs",
                "1",
                "--out",
                f"{tmp}/artifacts",
            ],
            check=True,
        )
        direct = validate_artifact_file(f"{tmp}/artifacts/fig1.json")

    assert served["records"] == direct["records"], (
        "served fig1 records differ from the direct CLI sweep"
    )
    print(
        f"service smoke OK: {len(served['records'])} records, "
        f"bit-identical to the direct run; transcript at {transcript_path}"
    )

    with tempfile.TemporaryDirectory(prefix="repro-service-drill-") as tmp:
        restart_drill(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
