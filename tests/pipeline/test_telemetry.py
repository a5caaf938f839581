"""Per-stage telemetry: the run-local report and the process-wide totals.

A stage report counts as ``computed`` only when the stage ran for real;
every other source (checkpoint, store, in-memory reuse) counts as
``loaded``.  Sweeps bracket each trial with :func:`totals_delta` and fold
the deltas with :func:`merge_totals`; the service streams the result as
:func:`profile_stage_rows`.
"""

import pytest

from repro.pipeline import STAGE_NAMES
from repro.pipeline.telemetry import (
    STAGE_SOURCES,
    StageReport,
    merge_totals,
    profile_stage_rows,
    record_stage,
    reset_stage_totals,
    stage_totals,
    totals_delta,
)


@pytest.fixture(autouse=True)
def clean_totals():
    reset_stage_totals()
    yield
    reset_stage_totals()


def _report(source="computed", stage="readout", seconds=0.5, **annotations):
    return StageReport(
        stage=stage,
        seconds=seconds,
        source=source,
        memory_hits=1,
        disk_hits=3,
        misses=2,
        **annotations,
    )


@pytest.mark.parametrize("source", STAGE_SOURCES)
def test_record_stage_counts_only_computed_runs_as_computed(source):
    record_stage(_report(source))
    record_stage(_report(source))
    entry = stage_totals()["readout"]
    expected = 2 if source == "computed" else 0
    assert entry["computed"] == expected
    assert entry["loaded"] == 2 - expected
    assert entry["seconds"] == pytest.approx(1.0)


def test_report_dict_carries_annotations_only_when_set():
    plain = _report().as_dict()
    assert plain == {
        "stage": "readout",
        "seconds": 0.5,
        "source": "computed",
        "memory_hits": 1,
        "disk_hits": 3,
        "misses": 2,
    }
    annotated = _report(
        stage="laplacian", backend="sparse", eigensolver="eigh-mrrr(n=40)"
    ).as_dict()
    assert annotated["linalg_backend"] == "sparse"
    assert annotated["eigensolver"] == "eigh-mrrr(n=40)"


def test_totals_delta_keeps_only_stages_that_ran_in_between():
    record_stage(_report(stage="laplacian", backend="dense"))
    before = stage_totals()
    record_stage(_report(stage="readout", source="store", seconds=0.25))
    delta = totals_delta(before, stage_totals())
    assert delta == {"readout": {"seconds": 0.25, "computed": 0, "loaded": 1}}


def test_merge_totals_adds_counters_and_keeps_the_latest_annotation():
    first = {"seconds": 1.0, "computed": 1, "loaded": 0, "linalg_backend": "dense"}
    second = {"seconds": 0.5, "computed": 0, "loaded": 2, "linalg_backend": "sparse"}
    accumulator = {}
    merge_totals(accumulator, {"laplacian": first})
    merge_totals(accumulator, {"laplacian": second})
    assert accumulator == {
        "laplacian": {
            "seconds": 1.5,
            "computed": 1,
            "loaded": 2,
            "linalg_backend": "sparse",
        }
    }


def test_profile_rows_follow_the_given_order_then_the_alphabet():
    profile = {
        name: {"seconds": 1, "computed": 1, "loaded": 0}
        for name in ("qmeans", "zeta", "laplacian", "alpha")
    }
    rows = profile_stage_rows(profile, order=STAGE_NAMES)
    assert [row["stage"] for row in rows] == ["laplacian", "qmeans", "alpha", "zeta"]
    assert rows[0] == {"stage": "laplacian", "seconds": 1.0, "computed": 1, "loaded": 0}
