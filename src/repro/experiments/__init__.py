"""Experiment harness: one module per reconstructed table/figure.

==========  =============================================================
Experiment  Module
==========  =============================================================
T1          ``repro.experiments.table1_msbm``
T2          ``repro.experiments.table2_netlist``
F1          ``repro.experiments.fig1_direction_sweep``
F2          ``repro.experiments.fig2_precision_sweep``
F3          ``repro.experiments.fig3_runtime_scaling``
F4          ``repro.experiments.fig4_shots_sweep``
A1–A4, A6   ``repro.experiments.ablations``
==========  =============================================================

Every figure/table module declares its sweep as a
:class:`~repro.experiments.runner.SweepSpec` (the ``spec()`` factory) and
executes it through :class:`~repro.experiments.runner.SweepRunner` — the
unified engine providing process-parallel trials (``jobs``), the spectral
cache and uniform JSON artifacts (see ``docs/experiments.md``).  Each
module keeps ``run(...)`` (structured records, legacy-compatible seeds), a
renderer (``table``/``series``), and ``main()`` which prints the markdown
quoted in EXPERIMENTS.md.  The matching pytest-benchmark targets live in
``benchmarks/``; the CLI front end is ``python -m repro experiments``.
"""

from repro.experiments import (
    ablations,
    common,
    fig1_direction_sweep,
    fig2_precision_sweep,
    fig3_runtime_scaling,
    fig4_shots_sweep,
    runner,
    table1_msbm,
    table2_netlist,
)
from repro.experiments.common import (
    TrialRecord,
    aggregate,
    evaluate_methods,
    render_markdown_table,
    standard_methods,
)
from repro.experiments.runner import (
    SweepAxis,
    SweepRunner,
    SweepSpec,
    get_spec,
    registry,
    validate_artifact,
    write_artifact,
)

__all__ = [
    "ablations",
    "common",
    "fig1_direction_sweep",
    "fig2_precision_sweep",
    "fig3_runtime_scaling",
    "fig4_shots_sweep",
    "runner",
    "table1_msbm",
    "table2_netlist",
    "TrialRecord",
    "aggregate",
    "evaluate_methods",
    "render_markdown_table",
    "standard_methods",
    "SweepAxis",
    "SweepRunner",
    "SweepSpec",
    "get_spec",
    "registry",
    "validate_artifact",
    "write_artifact",
]
