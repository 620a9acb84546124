"""Experiment harness regenerating every table and figure of Section 5.

An experiment is a grid of cells, one per grid point, and each module
exposes a ``cells`` / ``fold`` pair: ``cells`` pairs each point's
coordinates with its trials, described as campaign specs; ``fold``
reads each point's ordered trial results beside its coordinates into a
:class:`repro.results.ResultSet` with the rows and curves the paper
plots.  The experiment registry runs every cell's trials as one
campaign batch between the two, and :func:`run_experiment` (or
:func:`repro.api.run_experiment`) is the one way to run an experiment;
``tests/conformance/test_paper_shapes.py`` asserts the curves' shapes.

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

__all__ = [
    "Campaign",
    "ExperimentScale",
    "TrialSpec",
    "current_scale",
    "execute_spec",
    "ExperimentSpec",
    "ExperimentContext",
    "register_experiment",
    "unregister_experiment",
    "resolve_experiment",
    "experiment_names",
    "experiment_specs",
    "run_experiment",
]
