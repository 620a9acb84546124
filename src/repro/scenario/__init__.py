"""Declarative dynamic-environment scenarios.

The paper's pitch is *adaptivity*: the protocol converges to the optimal
plan whenever the environment "remains stable for long enough".  This
package makes "an unreliable network that changes over time" a
first-class object:

* :mod:`repro.scenario.schema` — JSON-able dataclasses composing a
  topology, a base configuration, a *dynamics timeline* (typed events at
  simulated times), a workload and a duration into a
  :class:`~repro.scenario.schema.ScenarioSpec`;
* :mod:`repro.scenario.registry` — named built-in scenarios
  (``partition-heal``, ``wan-brownout``, ...) sized by the experiment
  scale presets;
* :mod:`repro.scenario.trial` — the spawn-safe seeded trial runner that
  deploys any registered protocol (see
  :mod:`repro.protocols.registry`) into a scenario;
* :mod:`repro.scenario.run` — campaign compilation: scenario trials
  become :class:`~repro.experiments.campaign.TrialSpec`\\ s (parallel,
  cached, bit-identical to serial) aggregated into protocol-comparison
  tables;
* :mod:`repro.scenario.generate` — the seeded scenario generator:
  ``(seed, scale, index)`` to a valid-by-construction spec, addressable
  as ``gen:<seed>:<index>``;
* :mod:`repro.scenario.adversarial` — the adversarial search: hunt a
  generated-scenario budget for worst-case adaptive-vs-oracle regret and
  shrink each find to a minimal counterexample.

Timeline events are applied by :class:`repro.sim.dynamics.DynamicsDriver`
through the engine's deterministic ``(time, priority, seq)`` ordering, so
scenario trials stay pure functions of their scalar parameters.
"""

from repro.scenario.adversarial import Find, HuntResult, hunt, regret_score
from repro.scenario.generate import (
    ScenarioGenerator,
    generated_name,
    parse_generated_name,
)
from repro.scenario.registry import (
    build_scenario,
    promote_scenario,
    promoted_names,
    scenario_names,
    scenario_trials,
    scenarios_dir,
)
from repro.scenario.run import (
    SCENARIO_SWEEP_KEYS,
    ComparisonResult,
    ProtocolResult,
    scenario_reports,
)
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

__all__ = [
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
    "scenario_trials",
    "run_scenario_trial",
    "ComparisonResult",
    "ProtocolResult",
    "scenario_reports",
    "SCENARIO_SWEEP_KEYS",
    "ScenarioGenerator",
    "generated_name",
    "parse_generated_name",
    "Find",
    "HuntResult",
    "hunt",
    "regret_score",
    "promote_scenario",
    "promoted_names",
    "scenarios_dir",
]
