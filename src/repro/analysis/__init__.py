"""Analytic models and verification tools.

* :mod:`repro.analysis.two_paths` — the closed-form two-path model of
  Appendix A / Figure 1, with a Monte-Carlo cross-check.
* :mod:`repro.analysis.convergence` — the "all processes learned the
  probabilities" criterion of Figures 5/6 and estimate-error metrics.
* :mod:`repro.analysis.optimality` — checks for Definitions 1/2 and the
  Appendix C/D theorems (MRT maximality, greedy optimality).
* :mod:`repro.analysis.rules` / :mod:`repro.analysis.lint` — the
  determinism static-analysis pass behind ``repro lint`` (rules
  D001-D005 plus ``# repro: noqa-det[...]`` suppression).
"""

from repro.analysis.convergence import (
    ConvergenceCriterion,
    estimate_errors,
    learnable_link_probability,
    views_converged,
)
from repro.analysis.optimality import (
    is_maximum_spanning_tree,
    kruskal_maximum_spanning_weight,
    verify_adaptiveness,
)
from repro.analysis.lint import (
    format_report,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import RULE_CODES, Violation, rule_table
from repro.analysis.two_paths import (
    adaptive_reach,
    gossip_reach,
    message_ratio,
)

__all__ = [
    "message_ratio",
    "gossip_reach",
    "adaptive_reach",
    "ConvergenceCriterion",
    "views_converged",
    "estimate_errors",
    "learnable_link_probability",
    "is_maximum_spanning_tree",
    "kruskal_maximum_spanning_weight",
    "verify_adaptiveness",
    "RULE_CODES",
    "Violation",
    "rule_table",
    "format_report",
    "lint_file",
    "lint_paths",
    "lint_source",
]
