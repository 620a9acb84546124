"""Built-in named scenarios, sized by the experiment scale presets.

Each builder maps an :class:`~repro.experiments.runner.ExperimentScale`
to a concrete :class:`~repro.scenario.schema.ScenarioSpec`: the scale
picks the system size and stretches the timeline (quick scales keep the
dynamics short so smoke tests stay cheap; ``full`` runs paper-sized
systems under long disruptions).

The stable of stress patterns:

======================  ============================================
``partition-heal``      clean two-sided split, then full heal
``wan-brownout``        the WAN tier of a two-tier system browns out
``flash-crowd``         a broadcast surge lands on a degrading network
``rolling-restart``     processes leave and rejoin one at a time
``creeping-degradation`` every link decays in steps, then heals
``burst-storm``         crash model toggles into bursty (Markov) mode
``crash-wave``          a subset of processes turns crash-heavy
``churn-mill``          repeated random leave/join churn cycles
``hot-key-storm``       a flash-crowd surge slams into a partition
======================  ============================================
"""

from __future__ import annotations

import os
import re
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.errors import UnknownScenarioError, ValidationError, did_you_mean
from repro.experiments.runner import ExperimentScale, current_scale
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
    TimelineEvent,
    TopologySpec,
    WorkloadSpec,
)
from repro.util import jsonio
from repro.util.validation import check_positive_int

#: Scenario systems cap out below the paper's n=100: the dynamics layer
#: stresses *change*, not size, and adaptive trials are O(n * duration).
MAX_SCENARIO_N = 48


def _size(scale: ExperimentScale) -> int:
    return min(scale.n, MAX_SCENARIO_N)


def _stretch(scale: ExperimentScale) -> float:
    """Timeline stretch factor per scale preset."""
    return {"quick": 1.0, "default": 1.5, "full": 2.5}.get(scale.name, 1.0)


def scenario_trials(scale: ExperimentScale, override: Optional[int] = None) -> int:
    """Trials per (scenario, protocol) cell — fewer than figure trials.

    An explicit ``override`` must be a positive int (not a bool, float
    or NaN); every scenario path checks it here.
    """
    if override is not None:
        return check_positive_int(override, "trials")
    return max(2, scale.trials // 4)


def _partition_heal(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    return ScenarioSpec(
        name="partition-heal",
        description="two-sided partition, then heal; knowledge must re-track",
        topology=TopologySpec(kind="k_regular", n=_size(scale), degree=4),
        environment=EnvironmentSpec(loss=0.02),
        timeline=(
            Partition(at=120.0 * s, fraction=0.5),
            Heal(at=180.0 * s),
        ),
        workload=WorkloadSpec(period=120.0 * s, start=50.0 * s, count=4),
        duration=700.0 * s,
    )


def _wan_brownout(scale: ExperimentScale) -> ScenarioSpec:
    clusters = 4
    n = max(clusters * 2, (_size(scale) // clusters) * clusters)
    s = _stretch(scale)
    return ScenarioSpec(
        name="wan-brownout",
        description="the WAN backbone of a two-tier system browns out",
        topology=TopologySpec(kind="two_tier", n=n, clusters=clusters),
        environment=EnvironmentSpec(loss=0.01, wan_loss=0.2),
        timeline=(
            LinkDegrade(at=150.0 * s, loss=0.5, selector="wan"),
            LinkRestore(at=280.0 * s, selector="wan"),
        ),
        workload=WorkloadSpec(period=100.0 * s, start=50.0 * s, count=4),
        duration=600.0 * s,
    )


def _flash_crowd(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    return ScenarioSpec(
        name="flash-crowd",
        description="a broadcast surge lands while links degrade",
        topology=TopologySpec(kind="k_regular", n=_size(scale), degree=4),
        environment=EnvironmentSpec(loss=0.03),
        timeline=(
            LinkDegrade(at=140.0 * s, loss=0.15, selector="random", fraction=0.3),
            Heal(at=260.0 * s),
        ),
        workload=WorkloadSpec(
            period=90.0 * s,
            start=40.0 * s,
            count=3,
            surge_at=150.0 * s,
            surge_count=8,
        ),
        duration=420.0 * s,
    )


def _rolling_restart(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    n = _size(scale)
    victims = [p * (n // 4) for p in range(1, 4)]  # three spread-out pids
    timeline: List[TimelineEvent] = []
    t = 100.0 * s
    for p in victims:
        timeline.append(ProcessLeave(at=t, process=p))
        timeline.append(ProcessJoin(at=t + 40.0 * s, process=p))
        t += 70.0 * s
    return ScenarioSpec(
        name="rolling-restart",
        description="processes leave and rejoin one at a time",
        topology=TopologySpec(kind="k_regular", n=n, degree=4),
        environment=EnvironmentSpec(loss=0.02),
        timeline=tuple(timeline),
        workload=WorkloadSpec(period=80.0 * s, start=50.0 * s, count=5),
        duration=550.0 * s,
    )


def _creeping_degradation(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    return ScenarioSpec(
        name="creeping-degradation",
        description="all links decay in steps, then the environment heals",
        topology=TopologySpec(kind="k_regular", n=_size(scale), degree=4),
        environment=EnvironmentSpec(loss=0.01),
        timeline=(
            LinkDegrade(at=100.0 * s, loss=0.05),
            LinkDegrade(at=180.0 * s, loss=0.12),
            LinkDegrade(at=260.0 * s, loss=0.25),
            Heal(at=340.0 * s),
        ),
        workload=WorkloadSpec(period=100.0 * s, start=60.0 * s, count=4),
        duration=700.0 * s,
    )


def _burst_storm(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    return ScenarioSpec(
        name="burst-storm",
        description="crashes turn bursty (Markov sojourns), then calm down",
        topology=TopologySpec(kind="k_regular", n=_size(scale), degree=4),
        environment=EnvironmentSpec(crash=0.08, loss=0.01, crash_model="iid"),
        timeline=(
            BurstToggle(at=120.0 * s, model="markov", mean_down_ticks=6.0),
            BurstToggle(at=280.0 * s, model="iid"),
        ),
        workload=WorkloadSpec(period=90.0 * s, start=50.0 * s, count=4),
        duration=480.0 * s,
    )


def _crash_wave(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    return ScenarioSpec(
        name="crash-wave",
        description="a random third of the processes turns crash-heavy",
        topology=TopologySpec(kind="k_regular", n=_size(scale), degree=4),
        environment=EnvironmentSpec(crash=0.01, loss=0.01),
        timeline=(
            CrashBurst(at=130.0 * s, crash=0.4, fraction=0.33),
            Heal(at=250.0 * s),
        ),
        workload=WorkloadSpec(period=90.0 * s, start=50.0 * s, count=4),
        duration=600.0 * s,
    )


def _churn_mill(scale: ExperimentScale) -> ScenarioSpec:
    s = _stretch(scale)
    n = _size(scale)
    timeline: List[TimelineEvent] = []
    t = 90.0 * s
    for cycle in range(3):
        p = (1 + cycle * 5) % n
        timeline.append(ProcessLeave(at=t, process=p))
        timeline.append(ProcessJoin(at=t + 30.0 * s, process=p))
        t += 50.0 * s
    return ScenarioSpec(
        name="churn-mill",
        description="repeated leave/join churn cycles",
        topology=TopologySpec(kind="small_world", n=n, degree=4, beta=0.1),
        environment=EnvironmentSpec(loss=0.02),
        timeline=tuple(timeline),
        workload=WorkloadSpec(period=70.0 * s, start=40.0 * s, count=5),
        duration=500.0 * s,
    )


def _churn_storm(scale: ExperimentScale) -> ScenarioSpec:
    """Mass churn: leave/join waves proportional to the system size.

    Unlike the other builders this one honours ``scale.n`` *uncapped*:
    the scenario exists to soak the membership layer under thousands of
    processes and hundreds of churn events (``--sweep n=2000`` yields
    ``n // 8`` leave/join wave pairs — 500 events), and partial views
    are exactly the mechanism that keeps such runs tractable.
    """
    s = _stretch(scale)
    n = max(8, scale.n)  # deliberately NOT capped at MAX_SCENARIO_N
    waves = max(3, n // 8)
    start = 30.0 * s
    duration = 240.0 * s
    spacing = (duration - start - 10.0 * s) / waves
    timeline: List[TimelineEvent] = []
    for i in range(waves):
        p = (i * 13 + 7) % n
        at = start + i * spacing
        timeline.append(ProcessLeave(at=at, process=p))
        timeline.append(ProcessJoin(at=at + 0.5 * spacing, process=p))
    return ScenarioSpec(
        name="churn-storm",
        description=f"{waves} leave/join waves over a {n}-process mesh",
        topology=TopologySpec(kind="k_regular", n=n, degree=4),
        environment=EnvironmentSpec(loss=0.02),
        timeline=tuple(timeline),
        workload=WorkloadSpec(period=90.0 * s, start=20.0 * s, count=2),
        duration=duration,
    )


def _hot_key_storm(scale: ExperimentScale) -> ScenarioSpec:
    """The KV stress pattern: a surge of traffic meets a partition.

    A workload surge (the KV layer reads it as a Zipf-sharpened
    flash crowd on the hot keys) starts just before a half/half
    partition; the cut holds through the surge window and then heals,
    leaving a long quiescent tail for causal buffers to drain and
    last-writer-wins convergence to complete in.
    """
    s = _stretch(scale)
    return ScenarioSpec(
        name="hot-key-storm",
        description="a hot-key flash crowd slams into a partition, then heals",
        topology=TopologySpec(kind="k_regular", n=_size(scale), degree=4),
        environment=EnvironmentSpec(loss=0.02),
        timeline=(
            Partition(at=170.0 * s, fraction=0.5),
            Heal(at=280.0 * s),
        ),
        workload=WorkloadSpec(
            period=90.0 * s,
            start=40.0 * s,
            count=3,
            surge_at=150.0 * s,
            surge_count=6,
        ),
        duration=560.0 * s,
    )


_BUILDERS: Dict[str, Callable[[ExperimentScale], ScenarioSpec]] = {
    "partition-heal": _partition_heal,
    "wan-brownout": _wan_brownout,
    "flash-crowd": _flash_crowd,
    "rolling-restart": _rolling_restart,
    "creeping-degradation": _creeping_degradation,
    "burst-storm": _burst_storm,
    "crash-wave": _crash_wave,
    "churn-mill": _churn_mill,
    "churn-storm": _churn_storm,
    "hot-key-storm": _hot_key_storm,
}


def scenario_names() -> List[str]:
    """All built-in scenario names, in registry order."""
    return list(_BUILDERS)


#: Environment variable overriding the promoted-scenario directory.
SCENARIOS_DIR_ENV = "REPRO_SCENARIOS_DIR"

#: Default directory for promoted (file-backed) scenarios.
DEFAULT_SCENARIOS_DIR = ".repro-scenarios"

_PROMOTED_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def scenarios_dir(directory: Optional[str] = None) -> str:
    """Resolve the promoted-scenario directory (arg > env > default)."""
    return directory or os.environ.get(SCENARIOS_DIR_ENV) or DEFAULT_SCENARIOS_DIR


def promoted_names(directory: Optional[str] = None) -> List[str]:
    """Names of promoted scenarios on disk, sorted."""
    path = scenarios_dir(directory)
    try:
        entries = os.listdir(path)
    except OSError:
        return []
    return sorted(
        entry[: -len(".json")]
        for entry in entries
        if entry.endswith(".json")
        and _PROMOTED_NAME_RE.match(entry[: -len(".json")])
    )


def _load_promoted(name: str, directory: Optional[str]) -> Optional[ScenarioSpec]:
    if not _PROMOTED_NAME_RE.match(name):
        return None
    path = os.path.join(scenarios_dir(directory), f"{name}.json")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        spec = jsonio.decode(ScenarioSpec, jsonio.loads(data), "scenario")
    except ValidationError as exc:
        raise ValidationError(f"promoted scenario file {path}: {exc}") from None
    if spec.name != name:
        raise ValidationError(
            f"promoted scenario file {path} declares name {spec.name!r}, "
            f"expected {name!r}"
        )
    return spec


def promote_scenario(
    spec: ScenarioSpec, name: str, directory: Optional[str] = None
) -> str:
    """Write ``spec`` into the named scenario registry; returns the path.

    Promoted scenarios are plain JSON files under :func:`scenarios_dir`;
    :func:`build_scenario` resolves them by name (scale-independent — a
    promoted spec is fully concrete).  The spec is renamed to ``name``,
    which re-keys the per-trial seed streams: re-runs of the *promoted*
    scenario are reproducible against each other, not against the
    original ``gen:`` runs.
    """
    if not _PROMOTED_NAME_RE.match(name):
        raise ValidationError(
            f"promoted scenario name {name!r} must match "
            "[A-Za-z0-9][A-Za-z0-9_.-]* (it becomes a file stem)"
        )
    if name in _BUILDERS:
        raise ValidationError(
            f"cannot promote over built-in scenario {name!r}"
        )
    path = scenarios_dir(directory)
    os.makedirs(path, exist_ok=True)
    target = os.path.join(path, f"{name}.json")
    renamed = replace(spec, name=name)
    jsonio.write_pretty(target, jsonio.encode(renamed))
    return target


def build_scenario(
    name: str,
    scale: Optional[ExperimentScale] = None,
) -> ScenarioSpec:
    """Resolve a scenario name to a concrete spec at the given scale.

    Resolution order: built-in builders, then ``gen:<seed>:<index>``
    (regenerated from the seed at the scale's preset), then promoted
    JSON files under :func:`scenarios_dir` (scale-independent).
    """
    scale = scale or current_scale()
    builder = _BUILDERS.get(name)
    if builder is not None:
        return builder(scale)
    # deferred import: generate.py imports this module at load time
    from repro.scenario.generate import ScenarioGenerator, parse_generated_name

    parsed = parse_generated_name(name)
    if parsed is not None:
        seed, index = parsed
        return ScenarioGenerator(seed, scale).generate(index)
    promoted = _load_promoted(name, directory=None)
    if promoted is not None:
        return promoted
    suggestion, hint = did_you_mean(name, scenario_names() + promoted_names())
    raise UnknownScenarioError(
        f"unknown scenario {name!r}; built-ins: "
        + ", ".join(scenario_names())
        + "; generated scenarios use gen:<seed>:<index>; promoted "
        f"scenarios live under {scenarios_dir()!r}" + hint,
        suggestion=suggestion,
    )
