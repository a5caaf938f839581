"""Staged pipeline core: composable, checkpointable clustering stages.

Public surface:

* :class:`~repro.pipeline.pipeline.QSCPipeline` — the staged driver
  (``run(graph, resume_from=..., upstream=..., ...)``);
* :data:`~repro.pipeline.stages.STAGE_NAMES` / ``build_stages`` — the five
  concrete stages in execution order;
* :class:`~repro.pipeline.stage.Stage` / ``StageContext`` — the contract
  for new stages;
* :mod:`~repro.pipeline.telemetry` — per-stage profiling
  (``stage_totals`` feeds the sweep-artifact profile field);
* :mod:`~repro.pipeline.checkpoint` — the content-store keys of stage
  checkpoints;
* :mod:`~repro.pipeline.supervisor` — the supervised work queue the job
  service runs each job under (``ShardSupervisor``).
"""

from repro.pipeline.checkpoint import CHECKPOINT_VERSION
from repro.pipeline.pipeline import QSCPipeline
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.stages import STAGE_NAMES, build_stages
from repro.pipeline.supervisor import (
    InlineShardExecutor,
    ProcessShardExecutor,
    ShardSupervisor,
    ShardTask,
    SupervisorCancelled,
)
from repro.pipeline.telemetry import (
    StageReport,
    reset_stage_totals,
    stage_totals,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "InlineShardExecutor",
    "ProcessShardExecutor",
    "QSCPipeline",
    "STAGE_NAMES",
    "ShardSupervisor",
    "ShardTask",
    "Stage",
    "StageContext",
    "StageReport",
    "SupervisorCancelled",
    "build_stages",
    "reset_stage_totals",
    "stage_totals",
]
