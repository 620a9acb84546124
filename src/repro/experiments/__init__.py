"""Experiment harness regenerating every table and figure of Section 5.

Each module exposes a ``*_table()`` function returning a
:class:`repro.util.tables.SeriesTable` with the same rows/curves the paper
plots; ``tests/conformance/test_paper_shapes.py`` asserts their shapes.

Scales: the paper runs 100 processes with ``K = 0.9999``; certifying that
reliability empirically needs orders of magnitude more trials than a
laptop benchmark should burn, so each experiment accepts an
:class:`ExperimentScale` (default: reduced sizes, ``K = 0.99``) and the
``REPRO_BENCH_SCALE`` environment variable selects ``quick`` /
``default`` / ``full`` (paper-sized) presets.  The README's
paper-mapping table links every figure to its module, shape test and
unit tests; ``docs/architecture.md`` describes the campaign runner that
executes these experiments in parallel with on-disk caching.
"""

from repro.experiments.campaign import Campaign, TrialSpec, execute_spec
from repro.experiments.runner import ExperimentScale, current_scale
from repro.experiments.figure1 import figure1_table
from repro.experiments.figure4 import figure4_table
from repro.experiments.figure5 import figure5_table
from repro.experiments.figure6 import figure6_table
from repro.experiments.heterogeneous import heterogeneity_table
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    experiment_names,
    experiment_specs,
    register_experiment,
    resolve_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.experiments.table1 import table1_render

__all__ = [
    "Campaign",
    "ExperimentScale",
    "TrialSpec",
    "current_scale",
    "execute_spec",
    "figure1_table",
    "figure4_table",
    "figure5_table",
    "figure6_table",
    "heterogeneity_table",
    "table1_render",
    "ExperimentSpec",
    "ExperimentContext",
    "register_experiment",
    "unregister_experiment",
    "resolve_experiment",
    "experiment_names",
    "experiment_specs",
    "run_experiment",
]
