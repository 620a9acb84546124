"""Generic support utilities (data structures, statistics, rendering).

These modules have no knowledge of the paper's protocols; they are the
foundation the simulation kernel and the algorithms are built on:

* :mod:`repro.util.heap` — the addressable binary heap (Prim, ``optimize``).
* :mod:`repro.util.stats` — streaming statistics and percentiles.
* :mod:`repro.util.rng` — deterministic, splittable random streams.
* :mod:`repro.util.tables` — ASCII tables/series for experiment reports.
* :mod:`repro.util.validation` — argument validation helpers.
"""

from repro.util.heap import AddressableHeap
from repro.util.rng import DrawLedger, RandomSource, ledger_scope
from repro.util.stats import OnlineStats

__all__ = [
    "AddressableHeap",
    "DrawLedger",
    "ledger_scope",
    "RandomSource",
    "OnlineStats",
]
