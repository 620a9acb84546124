"""Reference models the shipped package is tested against.

Each module here is an oracle, not part of ``repro``: the package never
imports it.

* :mod:`.knowledge` / :mod:`.estimates` — the literal object form of
  Algorithm 4 (``ProcessView``) and Algorithm 3 (``Estimate``,
  ``select_best_estimate``), the differential reference for
  :class:`repro.core.viewtable.VectorView`.
* :mod:`.optimize` — the brute-force optimizer behind Theorem 2's check
  of the greedy :func:`repro.core.optimize.optimize`.
* :mod:`.optimality` / :mod:`.unionfind` — the Kruskal oracle behind
  Lemma 2's check that the MRT is a maximum spanning tree.
"""
