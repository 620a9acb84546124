"""Reference models the shipped package is tested against.

Each module here is an oracle, not part of ``repro``: the package never
imports it.

* :mod:`.knowledge` / :mod:`.estimates` — the literal object form of
  Algorithm 4 (``ProcessView``) and Algorithm 3 (``Estimate``,
  ``select_best_estimate``), the differential reference for
  :class:`repro.core.viewtable.VectorView`; its ``BeliefEstimator``
  adds Algorithm 5's success update to the shipped estimator.
* :mod:`.bayesian` — Algorithm 5's literal multiply-and-renormalise
  updates (``uniform_beliefs``, ``apply_failures``,
  ``apply_successes``), which the log-space
  :class:`repro.core.bayesian.BeliefEstimator` is held to.
* :mod:`.reach` — Eq. 1, the recursive ``reach_recursive``, the oracle
  for Eq. 2's product in :func:`repro.core.reach.reach`.
* :mod:`.optimize` — the brute-force optimizer behind Theorem 2's check
  of the greedy :func:`repro.core.optimize.optimize`, and
  ``optimize_for_budget``, the Lemma 3 dual.
* :mod:`.optimality` / :mod:`.unionfind` — the Kruskal oracle behind
  Lemma 2's check that the MRT is a maximum spanning tree.
* :mod:`.graphs` — ``random_connected``, the seeded random connected
  graphs the property and conformance tests draw their inputs from, and
  ``bfs_distances``, hop distances over them.
* :mod:`.stats` — ``mean_confidence_interval`` and ``z_quantile``, the
  normal-approximation intervals of Monte Carlo checks.
* :mod:`.periodic` — a periodic chain as one event re-pushed per firing,
  the oracle :meth:`repro.sim.engine.Simulator.periodic`'s tick groups
  are held to.
"""
