"""The paper's primary contribution.

* :mod:`repro.core.tree` / :mod:`repro.core.mrt` — Maximum Reliability
  Tree (Section 3.1, Algorithm 6).
* :mod:`repro.core.reach` — the ``reach`` function (Eq. 2).
* :mod:`repro.core.optimize` — the greedy ``optimize()`` (Algorithm 2).
* :mod:`repro.core.bayesian` — reliability-belief management
  (Algorithm 5, Eq. 4).
* :mod:`repro.core.knowledge` / :mod:`repro.core.viewtable` — the
  knowledge-approximation activity (Algorithms 3 and 4): its tunables
  and the vectorised NumPy view the adaptive protocol runs.
* :mod:`repro.core.broadcast` — shared reliable-broadcast process base.
* :mod:`repro.core.optimal` — the optimal algorithm (Algorithm 1).
* :mod:`repro.core.adaptive` — the adaptive algorithm (Section 4).
"""

from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
from repro.core.bayesian import BeliefEstimator, interval_midpoints
from repro.core.broadcast import DataMessage, ReliableBroadcastProcess
from repro.core.mrt import maximum_reliability_tree
from repro.core.optimal import OptimalBroadcast
from repro.core.optimize import optimize
from repro.core.reach import reach
from repro.core.tree import SpanningTree
from repro.core.viewtable import VectorView

__all__ = [
    "SpanningTree",
    "maximum_reliability_tree",
    "reach",
    "optimize",
    "BeliefEstimator",
    "interval_midpoints",
    "VectorView",
    "ReliableBroadcastProcess",
    "DataMessage",
    "OptimalBroadcast",
    "AdaptiveBroadcast",
    "AdaptiveParameters",
]
