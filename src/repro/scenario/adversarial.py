"""Adversarial scenario search: hunt for where adaptive loses to the oracle.

The paper's claim is that the adaptive protocol *tracks* the oracle
across dynamic environments.  :func:`hunt` probes that claim: it fans a
budget of generated scenarios (see
:class:`~repro.scenario.generate.ScenarioGenerator`) through the
campaign runner, scores each by **regret** — how much worse the adaptive
protocol does than the oracle on the same scenario — keeps the top-K
worst cases, and *shrinks* each counterexample by deterministic timeline
minimization: drop events one at a time (and finally tighten the
duration) while a retention threshold of the original regret still
reproduces.

The regret of a scenario, from trial-mean metrics::

    regret = max(0, oracle.delivery_ratio - adaptive.delivery_ratio)
           + MESSAGE_WEIGHT * min(1, max(0, (adaptive.total_messages
                                             - oracle.total_messages)
                                            / max(oracle.total_messages, 1)))

Delivery shortfall dominates; the message term (weight 0.1, capped) only
breaks ties toward scenarios where adaptation also *overpays* in traffic.

Determinism: the search phase submits name-based campaign specs
(``gen:<seed>:<index>``) and the shrink phase submits canonical-JSON
spec payloads, all through one :class:`~repro.experiments.campaign.Campaign`
whose results come back in submission order regardless of the execution
backend — so a hunt with a pinned seed is bit-identical across
``--backend serial``, ``--backend process:N`` and ``--backend shard:N``,
including the minimized timelines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.runner import ExperimentScale, current_scale
from repro.results.schema import Provenance, ResultSet
from repro.scenario.generate import ScenarioGenerator, generated_name
from repro.scenario.registry import scenario_trials
from repro.scenario.schema import ScenarioSpec
from repro.scenario.trial import (
    RECONV_POLL,
    SPEC_TRIAL_FN,
    TRIAL_FN,
    canonical_spec_json,
)

__all__ = [
    "MESSAGE_WEIGHT",
    "SHRINK_RETAIN",
    "Find",
    "HuntResult",
    "hunt",
    "regret_score",
]

#: Weight of the message-overhead term in the regret score.
MESSAGE_WEIGHT = 0.1

#: A shrink step must retain this fraction of the pre-shrink regret.
SHRINK_RETAIN = 0.9

#: Metrics aggregated (trial means) for the regret score and the report.
_METRICS = ("delivery_ratio", "total_messages", "data_messages")


def regret_score(adaptive: Dict[str, float], oracle: Dict[str, float]) -> float:
    """Adaptive-vs-oracle regret from two trial-mean metric dicts."""
    delivery_gap = max(0.0, oracle["delivery_ratio"] - adaptive["delivery_ratio"])
    # capped at 1: the overhead term is a tiebreaker, never the headline —
    # an oracle that (correctly) refuses to plan mid-partition sends
    # almost nothing, and an uncapped ratio would drown the delivery gap
    overhead = min(
        1.0,
        max(
            0.0,
            (adaptive["total_messages"] - oracle["total_messages"])
            / max(oracle["total_messages"], 1.0),
        ),
    )
    return delivery_gap + MESSAGE_WEIGHT * overhead


@dataclass(frozen=True)
class Find:
    """One worst-case frontier entry: a scenario plus its minimization."""

    rank: int
    index: int
    name: str
    regret: float
    regret_minimized: float
    adaptive: Dict[str, float]
    oracle: Dict[str, float]
    spec: ScenarioSpec
    minimized: ScenarioSpec

    @property
    def events(self) -> int:
        return len(self.spec.timeline)

    @property
    def events_minimized(self) -> int:
        return len(self.minimized.timeline)

    def to_json(self) -> Dict[str, object]:
        return {
            "rank": self.rank,
            "index": self.index,
            "name": self.name,
            "regret": self.regret,
            "regret_minimized": self.regret_minimized,
            "adaptive": dict(self.adaptive),
            "oracle": dict(self.oracle),
            "spec": self.spec.to_json(),
            "minimized": self.minimized.to_json(),
        }


@dataclass(frozen=True)
class HuntResult:
    """The outcome of one adversarial search."""

    seed: str
    scale: str
    budget: int
    trials: int
    top: int
    min_regret: float
    protocol: str
    oracle: str
    shrink: bool
    finds: Tuple[Find, ...]
    executed: int
    cached: int

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "scale": self.scale,
            "budget": self.budget,
            "trials": self.trials,
            "top": self.top,
            "min_regret": self.min_regret,
            "protocol": self.protocol,
            "oracle": self.oracle,
            "shrink": self.shrink,
            "finds": [find.to_json() for find in self.finds],
            "executed": self.executed,
            "cached": self.cached,
        }

    def to_result_set(self) -> ResultSet:
        """The frontier as a storable :class:`ResultSet`.

        The minimized spec travels as a canonical-JSON string cell, so a
        zero-tolerance ``results diff`` covers the minimized timelines,
        not just the scores.
        """
        columns = [
            "rank",
            "scenario",
            "regret",
            "regret_minimized",
            "adaptive_delivery",
            "oracle_delivery",
            "adaptive_messages",
            "oracle_messages",
            "events",
            "events_minimized",
            "minimized_spec",
        ]
        rows = [
            [
                find.rank,
                find.name,
                find.regret,
                find.regret_minimized,
                find.adaptive["delivery_ratio"],
                find.oracle["delivery_ratio"],
                find.adaptive["total_messages"],
                find.oracle["total_messages"],
                find.events,
                find.events_minimized,
                canonical_spec_json(find.minimized),
            ]
            for find in self.finds
        ]
        result = ResultSet.from_rows(
            "scenario-hunt",
            title=(
                f"adversarial hunt: seed={self.seed} budget={self.budget} "
                f"({self.protocol} vs {self.oracle}, {self.scale} scale)"
            ),
            columns=columns,
            rows=rows,
        )
        return replace(
            result,
            provenance=Provenance.capture(
                experiment="scenario-hunt",
                artefact="worst-case frontier",
                scale=self.scale,
                params={
                    "seed": self.seed,
                    "budget": self.budget,
                    "top": self.top,
                    "trials": self.trials,
                    "min_regret": self.min_regret,
                    "protocol": self.protocol,
                    "oracle": self.oracle,
                    "shrink": self.shrink,
                },
            ),
        )

    def render(self) -> str:
        lines = [
            f"adversarial hunt: seed={self.seed} budget={self.budget} "
            f"trials={self.trials} scale={self.scale} "
            f"({self.protocol} vs {self.oracle})",
        ]
        if not self.finds:
            lines.append(f"  no finds with regret >= {self.min_regret:g}")
            return "\n".join(lines)
        header = (
            f"  {'rank':>4}  {'scenario':<16} {'regret':>8} {'shrunk':>8} "
            f"{'events':>6} {'adaptive':>9} {'oracle':>7}"
        )
        lines.append(header)
        for find in self.finds:
            lines.append(
                f"  {find.rank:>4}  {find.name:<16} {find.regret:>8.4f} "
                f"{find.regret_minimized:>8.4f} "
                f"{find.events:>3}->{find.events_minimized:<2} "
                f"{find.adaptive['delivery_ratio']:>9.4f} "
                f"{find.oracle['delivery_ratio']:>7.4f}"
            )
        return "\n".join(lines)


def _mean_metrics(chunk: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {
        metric: Campaign.aggregate(chunk, metric).mean for metric in _METRICS
    }


def _pair_specs(
    spec_json: str, protocol: str, oracle: str, trials: int
) -> List[TrialSpec]:
    return [
        TrialSpec.make(
            SPEC_TRIAL_FN, spec_json=spec_json, protocol=proto, trial=trial
        )
        for proto in (protocol, oracle)
        for trial in range(trials)
    ]


def _pair_regret(
    results: Sequence[Dict[str, float]], trials: int
) -> Tuple[float, Dict[str, float], Dict[str, float]]:
    adaptive = _mean_metrics(results[:trials])
    oracle = _mean_metrics(results[trials : 2 * trials])
    return regret_score(adaptive, oracle), adaptive, oracle


def _tightened_duration(spec: ScenarioSpec) -> float:
    """The tightest duration shrink may propose for ``spec``.

    Keeps two reconvergence polls after the last event and at least the
    first broadcast, so the shrunk spec still *runs* something.
    """
    return max(
        spec.last_event_time + 2.0 * RECONV_POLL,
        spec.workload.start + 1.0,
        1.0,
    )


def _shrink_candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """One round of minimization candidates, in deterministic order."""
    candidates = [
        replace(
            spec, timeline=spec.timeline[:i] + spec.timeline[i + 1 :]
        )
        for i in range(len(spec.timeline))
    ]
    tight = _tightened_duration(spec)
    if tight < spec.duration - 1e-9:
        candidates.append(replace(spec, duration=tight))
    return candidates


def _shrink(
    spec: ScenarioSpec,
    base_regret: float,
    threshold: float,
    campaign: Campaign,
    protocol: str,
    oracle: str,
    trials: int,
) -> Tuple[ScenarioSpec, float]:
    """Greedy fixpoint minimization of ``spec`` under the regret threshold.

    Each round evaluates every single-step candidate (drop one event;
    tighten the duration) as one campaign batch and accepts the *first*
    candidate whose regret still clears the threshold — first-accept
    keeps the result independent of worker scheduling.
    """
    current, current_regret = spec, base_regret
    while True:
        candidates = _shrink_candidates(current)
        if not candidates:
            return current, current_regret
        payloads = [canonical_spec_json(c) for c in candidates]
        batch: List[TrialSpec] = []
        for payload in payloads:
            batch.extend(_pair_specs(payload, protocol, oracle, trials))
        results = campaign.run(batch)
        per_pair = 2 * trials
        accepted = None
        for pos in range(len(candidates)):
            chunk = results[pos * per_pair : (pos + 1) * per_pair]
            candidate_regret, _, _ = _pair_regret(chunk, trials)
            if candidate_regret >= threshold:
                accepted = (candidates[pos], candidate_regret)
                break
        if accepted is None:
            return current, current_regret
        current, current_regret = accepted


def hunt(
    seed: str = "0",
    budget: int = 50,
    *,
    scale: Optional[ExperimentScale] = None,
    top: int = 5,
    trials: Optional[int] = None,
    protocol: str = "adaptive",
    oracle: str = "optimal",
    min_regret: float = 0.0,
    shrink: bool = True,
    campaign: Optional[Campaign] = None,
) -> HuntResult:
    """Search ``budget`` generated scenarios for worst-case regret.

    Args:
        seed: generator seed (``[A-Za-z0-9_.-]+``).
        budget: number of generated scenarios to evaluate.
        scale: experiment scale (ambient default); generation always
            uses the preset registered under the scale's name.
        top: frontier size (the K worst scenarios are kept).
        trials: trials per (scenario, protocol) cell; default is the
            scenario trial count of the scale.
        protocol: the protocol under test.
        oracle: the reference protocol regret is measured against.
        min_regret: drop frontier entries below this regret.
        shrink: minimize each find's timeline (drop/shorten events while
            ``SHRINK_RETAIN`` of its regret reproduces).
        campaign: the campaign runner (fresh serial one by default).
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if top < 1:
        raise ValidationError(f"top must be >= 1, got {top}")
    scale = scale or current_scale()
    campaign = campaign or Campaign()
    n_trials = scenario_trials(scale, trials)
    generator = ScenarioGenerator(seed, scale)
    specs = [generator.generate(index) for index in range(budget)]

    # search phase: name-based specs, so parallel workers rebuild each
    # generated scenario from (seed, scale, index) alone
    batch: List[TrialSpec] = []
    for index in range(budget):
        batch.extend(
            TrialSpec.make(
                TRIAL_FN,
                scenario=generated_name(seed, index),
                protocol=proto,
                scale=scale.name,
                trial=trial,
            )
            for proto in (protocol, oracle)
            for trial in range(n_trials)
        )
    results = campaign.run(batch)

    per_pair = 2 * n_trials
    scored = []
    for index in range(budget):
        chunk = results[index * per_pair : (index + 1) * per_pair]
        score, adaptive, oracle_metrics = _pair_regret(chunk, n_trials)
        scored.append((score, index, adaptive, oracle_metrics))
    scored.sort(key=lambda item: (-item[0], item[1]))

    finds: List[Find] = []
    for rank, (score, index, adaptive, oracle_metrics) in enumerate(
        scored[:top], start=1
    ):
        if score < min_regret:
            continue
        spec = specs[index]
        minimized, minimized_regret = spec, score
        if shrink and spec.timeline and score > 0.0:
            minimized, minimized_regret = _shrink(
                spec,
                score,
                threshold=max(min_regret, score * SHRINK_RETAIN),
                campaign=campaign,
                protocol=protocol,
                oracle=oracle,
                trials=n_trials,
            )
        finds.append(
            Find(
                rank=rank,
                index=index,
                name=spec.name,
                regret=score,
                regret_minimized=minimized_regret,
                adaptive=adaptive,
                oracle=oracle_metrics,
                spec=spec,
                minimized=minimized,
            )
        )

    return HuntResult(
        seed=generator.seed,
        scale=scale.name,
        budget=budget,
        trials=n_trials,
        top=top,
        min_regret=min_regret,
        protocol=protocol,
        oracle=oracle,
        shrink=shrink,
        finds=tuple(finds),
        executed=campaign.executed,
        cached=campaign.cached,
    )


def parse_hunt_json(payload: str) -> Dict[str, object]:
    """Decode a ``HuntResult.to_json`` payload (for tooling round-trips)."""
    decoded = json.loads(payload)
    if not isinstance(decoded, dict) or "finds" not in decoded:
        raise ValidationError("not a hunt result payload")
    return decoded
