"""Diffusion protocols: the registry plus the baseline implementations.

* :mod:`repro.protocols.registry` — the protocol registry: every
  comparable protocol stack (the paper's adaptive algorithm, the optimal
  oracle and the baselines below) is a :class:`ProtocolSpec` with a
  uniform ``factory(ctx)``, a typed parameter dataclass and capability
  flags; third-party protocols plug in via ``repro.protocols`` entry
  points or :func:`register_protocol`.
* :mod:`repro.protocols.trial` — :class:`Trial`, the one lifecycle of
  a run: deploy a registered protocol into a network, run it, close it.
* :mod:`repro.protocols.gossip` — the Section 5 reference algorithm:
  step-synchronous forwarding with ACK suppression, run for a round count
  calibrated to the target reliability.
* :mod:`repro.protocols.flooding` — deterministic flood (each process
  forwards once to all neighbours), the classic non-probabilistic
  baseline of [8].
* :mod:`repro.protocols.twophase` — a bimodal-multicast-style two-phase
  protocol (unreliable gossip + anti-entropy repair), after [2] in the
  related work, used in extended comparisons.
"""

from repro.protocols.flooding import FloodingBroadcast
from repro.protocols.gossip import (
    GossipBroadcast,
    GossipParameters,
    calibrate_rounds,
)
from repro.protocols.registry import (
    AdaptiveProtocolParams,
    DeployContext,
    FloodingProtocolParams,
    GossipProtocolParams,
    OptimalProtocolParams,
    ProtocolSpec,
    TwoPhaseProtocolParams,
    default_protocols,
    discover_plugins,
    protocol_names,
    protocol_specs,
    register_protocol,
    resolve_protocol,
    unregister_protocol,
)
from repro.protocols.trial import Trial
from repro.protocols.twophase import TwoPhaseBroadcast, TwoPhaseParameters

__all__ = [
    "GossipBroadcast",
    "GossipParameters",
    "calibrate_rounds",
    "FloodingBroadcast",
    "TwoPhaseBroadcast",
    "TwoPhaseParameters",
    # registry
    "ProtocolSpec",
    "DeployContext",
    "Trial",
    "register_protocol",
    "unregister_protocol",
    "resolve_protocol",
    "protocol_names",
    "protocol_specs",
    "default_protocols",
    "discover_plugins",
    "AdaptiveProtocolParams",
    "OptimalProtocolParams",
    "GossipProtocolParams",
    "FloodingProtocolParams",
    "TwoPhaseProtocolParams",
]
