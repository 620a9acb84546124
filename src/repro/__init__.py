"""repro — adaptive MRT-based probabilistic reliable broadcast.

A from-scratch reproduction of *"An Adaptive Algorithm for Efficient
Message Diffusion in Unreliable Environments"* (Garbinato, Pedone &
Schmidt, DSN 2004 / EPFL TR IC/2004/30): the optimal Maximum-Reliability-
Tree broadcast, the Bayesian adaptive protocol that converges to it, the
reference gossip baseline, and the discrete-event simulation substrate
the paper evaluates on.

Quickstart::

    from repro import (
        Configuration, k_regular, maximum_reliability_tree, optimize,
    )

    graph = k_regular(20, 4)
    config = Configuration.uniform(graph, crash=0.0, loss=0.03)
    tree = maximum_reliability_tree(graph, config, root=0)
    plan = optimize(tree, k_target=0.9999, view=config)
    print(plan.total_messages, plan.achieved)

See ``examples/`` for full simulated runs and ``repro experiments run``
for the regeneration of every table and figure of the paper.
"""

from repro.analysis.convergence import (
    ConvergenceCriterion,
    estimate_errors,
    learnable_link_probability,
    views_converged,
)
from repro.analysis.optimality import is_maximum_spanning_tree, verify_adaptiveness
from repro.analysis.two_paths import message_ratio
from repro.core.adaptive import (
    AdaptiveBroadcast,
    AdaptiveParameters,
    HeartbeatMessage,
    PiggybackedData,
)
from repro.core.bayesian import BeliefEstimator
from repro.core.refinement import AdaptiveResolutionEstimator
from repro.core.broadcast import DataMessage, ReliableBroadcastProcess
from repro.core.estimates import Estimate, select_best_estimate
from repro.core.knowledge import KnowledgeParameters, ProcessView
from repro.core.mrt import maximum_reliability_tree
from repro.core.optimal import OptimalBroadcast
from repro.core.optimize import OptimizeResult, optimize, optimize_bruteforce
from repro.core.reach import reach, reach_recursive, transmission_lambda
from repro.core.tree import SpanningTree
from repro.core.viewtable import VectorView
from repro.errors import ReproError
from repro.protocols.flooding import FloodingBroadcast
from repro.scenario.registry import build_scenario, scenario_names
from repro.scenario.schema import (
    BurstToggle,
    CrashBurst,
    EnvironmentSpec,
    Heal,
    LinkDegrade,
    LinkRestore,
    Partition,
    ProcessJoin,
    ProcessLeave,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenario.trial import run_scenario_trial
from repro.sim.dynamics import DynamicsDriver
from repro.protocols.gossip import GossipBroadcast, GossipParameters, calibrate_rounds
from repro.protocols.registry import (
    AdaptiveProtocolParams,
    DeployContext,
    FloodingProtocolParams,
    GossipProtocolParams,
    OptimalProtocolParams,
    ProtocolSpec,
    TwoPhaseProtocolParams,
    protocol_names,
    register_protocol,
    resolve_protocol,
)
from repro.protocols.twophase import TwoPhaseBroadcast, TwoPhaseParameters
from repro.sim.engine import Simulator
from repro.sim.monitors import BroadcastMonitor, ConvergenceMonitor
from repro.sim.network import Network, NetworkOptions
from repro.sim.process import SimProcess
from repro.sim.trace import MessageCategory, MessageStats
from repro.topology.configuration import Configuration
from repro.topology.generators import (
    clique,
    grid,
    k_regular,
    line,
    random_connected,
    random_tree,
    ring,
    scale_free,
    small_world,
    star,
    two_tier,
)
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.rng import RandomSource

__version__ = "1.0.0"

# the public facade: repro.api (imported last — it builds on everything
# above; `import repro` is enough to reach repro.api.*)
from repro import api
from repro.api import (
    ComparisonResult,
    ExperimentContext,
    ExperimentSpec,
    ProtocolResult,
    Provenance,
    ResultDiff,
    ResultSet,
    ResultStore,
    TrialResult,
    compare,
    diff_results,
    get_experiment,
    get_protocol,
    list_experiments,
    list_protocols,
    list_scenarios,
    load_results,
    register_experiment,
    run_experiment,
    run_scenario,
    run_trial,
)

__all__ = [
    # topology
    "Graph",
    "Link",
    "ProcessId",
    "Configuration",
    "ring",
    "line",
    "star",
    "clique",
    "grid",
    "k_regular",
    "random_tree",
    "random_connected",
    "small_world",
    "scale_free",
    "two_tier",
    # core algorithms
    "SpanningTree",
    "maximum_reliability_tree",
    "reach",
    "reach_recursive",
    "transmission_lambda",
    "optimize",
    "optimize_bruteforce",
    "OptimizeResult",
    "BeliefEstimator",
    "Estimate",
    "select_best_estimate",
    "KnowledgeParameters",
    "ProcessView",
    "VectorView",
    # protocols
    "ReliableBroadcastProcess",
    "DataMessage",
    "HeartbeatMessage",
    "OptimalBroadcast",
    "AdaptiveBroadcast",
    "AdaptiveParameters",
    "PiggybackedData",
    "AdaptiveResolutionEstimator",
    "GossipBroadcast",
    "GossipParameters",
    "calibrate_rounds",
    "FloodingBroadcast",
    "TwoPhaseBroadcast",
    "TwoPhaseParameters",
    # protocol registry + public api
    "api",
    "ProtocolSpec",
    "DeployContext",
    "register_protocol",
    "resolve_protocol",
    "get_protocol",
    "protocol_names",
    "list_protocols",
    "list_scenarios",
    "AdaptiveProtocolParams",
    "OptimalProtocolParams",
    "GossipProtocolParams",
    "FloodingProtocolParams",
    "TwoPhaseProtocolParams",
    "run_trial",
    "run_scenario",
    "compare",
    "TrialResult",
    "ProtocolResult",
    "ComparisonResult",
    # experiment registry + results store
    "ExperimentSpec",
    "ExperimentContext",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "ResultSet",
    "ResultDiff",
    "ResultStore",
    "Provenance",
    "load_results",
    "diff_results",
    # simulation
    "Simulator",
    "Network",
    "NetworkOptions",
    "SimProcess",
    "DynamicsDriver",
    # scenarios
    "ScenarioSpec",
    "TopologySpec",
    "EnvironmentSpec",
    "WorkloadSpec",
    "LinkDegrade",
    "LinkRestore",
    "Partition",
    "Heal",
    "CrashBurst",
    "ProcessLeave",
    "ProcessJoin",
    "BurstToggle",
    "build_scenario",
    "scenario_names",
    "run_scenario_trial",
    "MessageCategory",
    "MessageStats",
    "BroadcastMonitor",
    "ConvergenceMonitor",
    # analysis
    "message_ratio",
    "ConvergenceCriterion",
    "views_converged",
    "estimate_errors",
    "learnable_link_probability",
    "is_maximum_spanning_tree",
    "verify_adaptiveness",
    # misc
    "RandomSource",
    "ReproError",
    "__version__",
]
