"""Discrete-event simulation substrate.

Section 5: *"we built a discrete-event simulation model ... associating a
crash probability to each process and a loss probability to each link"*.
This package is that simulator, built from scratch:

* :mod:`repro.sim.engine` / :mod:`repro.sim.events` — event queue,
  virtual clock and the :class:`Event` that ``schedule`` returns.
* :mod:`repro.sim.crash` — per-step crash models (i.i.d. per the paper's
  definition of ``P_i``; Markov bursty model for ablations).
* :mod:`repro.sim.link` / :mod:`repro.sim.network` — lossy message
  transport with per-category message accounting.
* :mod:`repro.sim.process` — base class for protocol processes (timers,
  sends, crash-aware delivery, volatile/stable storage).
* :mod:`repro.sim.trace` / :mod:`repro.sim.monitors` — statistics,
  delivery tracking and convergence detection.
"""

from repro.sim.crash import CrashModel, IidCrashModel, MarkovCrashModel, NoCrashModel
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.monitors import BroadcastMonitor, ConvergenceMonitor
from repro.sim.network import Network, NetworkOptions
from repro.sim.process import SimProcess
from repro.sim.stable_storage import StableStorage, VolatileMemory
from repro.sim.trace import MessageCategory, MessageStats

__all__ = [
    "Simulator",
    "Event",
    "CrashModel",
    "NoCrashModel",
    "IidCrashModel",
    "MarkovCrashModel",
    "Network",
    "NetworkOptions",
    "SimProcess",
    "StableStorage",
    "VolatileMemory",
    "MessageCategory",
    "MessageStats",
    "BroadcastMonitor",
    "ConvergenceMonitor",
]
