"""Campaign execution of scenarios and protocol-comparison reporting.

:func:`scenario_report` compiles a scenario's ``protocols x trials``
matrix into :class:`~repro.experiments.campaign.TrialSpec`\\ s and runs
them through a :class:`~repro.experiments.campaign.Campaign` — so
scenario runs inherit the whole campaign contract for free: parallel
fan-out over worker processes, on-disk caching keyed by content hash,
resume-after-interrupt, and aggregates folded in submission order so the
printed table is **bit-identical** to a serial run.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError, did_you_mean
from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.runner import ExperimentScale, current_scale, scaled
from repro.protocols.registry import (
    default_protocols,
    parse_param_key,
    resolve_protocol,
)
from repro.results.schema import Provenance, ResultSet
from repro.scenario.registry import (
    MAX_SCENARIO_N,
    build_scenario,
    scenario_trials,
)
from repro.scenario.schema import ScenarioSpec
from repro.scenario.trial import TRIAL_FN
from repro.util.tables import render_table
from repro.util.validation import coerce_scalar

#: Scalar keys ``repro scenario run --sweep`` accepts; dotted
#: ``protocol.param`` keys (``gossip.rounds=4,8``) sweep per-protocol
#: parameters on top — see :func:`repro.protocols.registry.parse_param_key`.
SCENARIO_SWEEP_KEYS = ("n", "trials", "loss", "crash", "duration")


def _scalar_sweep_value(key: str, value: object) -> float:
    """One scalar override, checked against :data:`SCENARIO_SWEEP_KEYS`.

    ``n`` and ``trials`` must be whole numbers: ``trials=2.9`` silently
    running 2 trials would change the request without saying so.
    """
    if key not in SCENARIO_SWEEP_KEYS:
        _, hint = did_you_mean(key, SCENARIO_SWEEP_KEYS)
        raise ValidationError(
            f"scenario runs do not sweep {key!r}; supported keys: "
            + ", ".join(SCENARIO_SWEEP_KEYS)
            + f", plus protocol.param (e.g. gossip.rounds){hint}"
        )
    kind = int if key in ("n", "trials") else float
    return coerce_scalar(f"--sweep {key}", kind, value)


def sweep_combos(sweeps: Dict[str, List]) -> List[Dict]:
    """Cartesian product of sweep values → one override dict per combo."""
    combos: List[Dict] = [{}]
    for key, values in sweeps.items():
        combos = [
            {**combo, key: value} for combo in combos for value in values
        ]
    return combos


def _fmt(value: object) -> str:
    """Render an override value (dotted param sweeps may carry strings)."""
    return f"{value:g}" if isinstance(value, (int, float)) else str(value)


@dataclass(frozen=True)
class ProtocolResult:
    """One protocol's aggregated row of a scenario comparison.

    ``reconv_time`` / ``reconverged`` are None for protocols without
    learned knowledge.
    """

    protocol: str
    delivery_ratio: float
    data_messages: float
    total_messages: float
    reconv_time: Optional[float]
    reconverged: Optional[float]

    def to_row(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonResult:
    """One scenario's protocol-comparison table (typed, renderable, JSON-able)."""

    scenario: str
    description: str
    scale: str
    trials: int
    overrides: Dict[str, object] = field(default_factory=dict)
    rows: Tuple[ProtocolResult, ...] = ()

    def row(self, protocol: str) -> ProtocolResult:
        """The row of one protocol (name or alias)."""
        name = resolve_protocol(protocol).name
        for entry in self.rows:
            if entry.protocol == name:
                return entry
        raise ValidationError(
            f"protocol {name!r} is not part of this comparison "
            f"({', '.join(r.protocol for r in self.rows)})"
        )

    def render(self, precision: int = 4) -> str:
        headers = [
            "protocol",
            "delivery",
            "data msgs",
            "total msgs",
            "reconv time",
            "reconv frac",
        ]
        table_rows = [astuple(row) for row in self.rows]
        suffix = "".join(
            f" {k}={_fmt(v)}" for k, v in sorted(self.overrides.items())
        )
        title = (
            f"scenario {self.scenario} ({self.scale} scale, "
            f"{self.trials} trials{suffix}) — {self.description}"
        )
        return render_table(headers, table_rows, title=title, precision=precision)

    def to_json(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "scale": self.scale,
            "trials": self.trials,
            "overrides": dict(self.overrides),
            "rows": [row.to_row() for row in self.rows],
        }

    def to_result_set(self) -> ResultSet:
        """The comparison table as a storable ResultSet.

        Experiment name ``scenario-<name>``, one row per protocol, with
        run parameters in the provenance — so scenario runs participate
        in the results store's zero-tolerance re-run diffs exactly like
        registry experiments.
        """
        result = ResultSet.from_rows(
            f"scenario-{self.scenario}",
            title=(
                f"scenario {self.scenario} ({self.scale} scale, "
                f"{self.trials} trials) — {self.description}"
            ),
            columns=[f.name for f in fields(ProtocolResult)],
            rows=[astuple(row) for row in self.rows],
        )
        params: Dict[str, object] = {"trials": self.trials}
        params.update(self.overrides)
        return replace(
            result,
            provenance=Provenance.capture(
                experiment=f"scenario-{self.scenario}",
                artefact="protocol comparison",
                scale=self.scale,
                params=params,
            ),
        )

    def write(self, directory: str) -> str:
        """Persist text + JSON artefacts; returns the JSON path."""
        os.makedirs(directory, exist_ok=True)
        # scale, protocol selection and trials are all part of the stem:
        # runs differing in any of --scale/--protocols/--sweep write one
        # artefact pair per combination instead of overwriting
        protocols = "-".join(row.protocol for row in self.rows)
        stem = f"scenario_{self.scenario}_{self.scale}_{protocols}" \
               f"_trials{self.trials}"
        if self.overrides:
            stem += "_" + "_".join(
                f"{k}{_fmt(v)}" for k, v in sorted(self.overrides.items())
            )
        with open(os.path.join(directory, f"{stem}.txt"), "w") as fh:
            fh.write(self.render() + "\n")
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
        return path


def compile_specs(
    scenario: str,
    protocols: Sequence[str],
    scale_name: str,
    trials: int,
    overrides: Optional[Dict[str, float]] = None,
    params: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[TrialSpec]:
    """The ``protocols x trials`` grid as seed-complete campaign specs.

    ``params`` (per-protocol parameter overrides, keyed by canonical
    protocol name) rides along as a canonical JSON string — campaign
    spec values must be hashable scalars.  Each protocol's specs carry
    *only its own* overrides, and nothing when it has none: a
    ``gossip.rounds`` sweep must not perturb the flooding rows' cache
    keys (or their dedup against a no-sweep run).
    """
    overrides = overrides or {}
    params = params or {}
    specs: List[TrialSpec] = []
    for protocol in protocols:
        extra: Dict[str, object] = dict(overrides)
        if params.get(protocol):
            extra["params"] = json.dumps(
                {protocol: params[protocol]}, sort_keys=True
            )
        for trial in range(trials):
            specs.append(
                TrialSpec.make(
                    TRIAL_FN,
                    scenario=scenario,
                    protocol=protocol,
                    scale=scale_name,
                    trial=trial,
                    **extra,
                )
            )
    return specs


def split_param_overrides(
    combo: Dict[str, object], protocols: Sequence[str]
) -> Tuple[Dict[str, float], Dict[str, Dict[str, object]]]:
    """Split one sweep combo into scalar overrides and dotted param keys.

    Scalar keys must be one of :data:`SCENARIO_SWEEP_KEYS` — an unknown
    one would otherwise reach the trial function as a keyword.  Dotted
    keys (``gossip.rounds``) resolve through the protocol registry: the
    protocol half may be an alias, the parameter half must exist on the
    protocol's params dataclass, and the protocol must be part of the
    run — a sweep that silently targeted an absent protocol would
    mislabel the table.
    """
    overrides: Dict[str, float] = {}
    params: Dict[str, Dict[str, object]] = {}
    for key, value in combo.items():
        if "." not in str(key):
            overrides[key] = _scalar_sweep_value(key, value)
            continue
        spec, param = parse_param_key(str(key))
        if spec.name not in protocols:
            raise ValidationError(
                f"sweep key {key!r} targets protocol {spec.name!r}, which "
                f"is not in this run ({', '.join(protocols)}); add it to "
                "--protocols"
            )
        params.setdefault(spec.name, {})[param] = value
    return overrides, params


def _validated_spec(
    scenario: str, scale: ExperimentScale, overrides: Dict[str, float]
) -> ScenarioSpec:
    """Build the spec eagerly so bad sweeps fail before any fan-out."""
    check_scale = scale
    if "n" in overrides:
        check_scale = scaled(scale, n=int(overrides["n"]))
    spec: ScenarioSpec = build_scenario(scenario, check_scale)
    if "n" in overrides and spec.topology.n != int(overrides["n"]):
        # a builder may cap (MAX_SCENARIO_N) or round (two_tier clusters)
        # the system size; refuse rather than mislabel the results
        raise ValidationError(
            f"scenario {scenario!r} cannot run at n={overrides['n']} "
            f"(the builder sized it to n={spec.topology.n}; scenario "
            f"systems cap at n={MAX_SCENARIO_N} and cluster topologies "
            "round to whole clusters) — sweep a supported n instead"
        )
    spec.with_overrides(
        loss=overrides.get("loss"),
        crash=overrides.get("crash"),
        duration=overrides.get("duration"),
    )
    return spec


def protocol_row(
    protocol: str, chunk: Sequence[Dict[str, float]]
) -> ProtocolResult:
    """Aggregate one protocol's trial metrics into a comparison row.

    Shared by the campaign path below and ``repro.api``'s serial
    custom-spec path, so both aggregate identically.
    """
    def mean(metric: str) -> float:
        return Campaign.aggregate(chunk, metric).mean

    learned = not all(r["reconverged"] < 0.0 for r in chunk)
    return ProtocolResult(
        protocol=protocol,
        delivery_ratio=mean("delivery_ratio"),
        data_messages=mean("data_messages"),
        total_messages=mean("total_messages"),
        reconv_time=mean("reconv_time") if learned else None,
        reconverged=mean("reconverged") if learned else None,
    )


def scenario_reports(
    scenario: str,
    combos: Sequence[Dict[str, float]],
    protocols: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    campaign: Optional[Campaign] = None,
) -> List[ComparisonResult]:
    """Run one scenario for several sweep combinations in one batch.

    Every combination's ``protocols x trials`` specs go through a single
    :meth:`Campaign.run_stream`, so worker pools spin up once and
    stragglers of one combination overlap with the next instead of
    forming barriers.
    Each ``combo`` may carry ``n``, ``loss``, ``crash``, ``duration``,
    ``trials`` and dotted per-protocol parameter keys
    (``gossip.rounds``) — any other key, or a fractional ``n`` /
    ``trials``, raises :class:`ValidationError` before a trial is
    submitted; results are sliced back per combination, so the
    tables are identical to running the combinations separately.
    """
    scale = scale or current_scale()
    campaign = campaign or Campaign()
    # registry resolution canonicalises aliases ("twophase" -> "two-phase")
    # and raises a did-you-mean UnknownProtocolError for typos — the same
    # error path the CLI uses
    protocols = tuple(
        resolve_protocol(protocol).name
        for protocol in (protocols or default_protocols())
    )

    prepared = []
    all_specs: List[TrialSpec] = []
    for combo in combos:
        overrides, param_overrides = split_param_overrides(
            dict(combo), protocols
        )
        trials = scenario_trials(scale, overrides.pop("trials", None))
        spec = _validated_spec(scenario, scale, overrides)
        for name, param_over in param_overrides.items():
            # validate eagerly (field names, types, dataclass invariants)
            # so a bad sweep fails before any fan-out
            resolve_protocol(name).make_params(
                scenario=spec, overrides=param_over
            )
        # the workers rebuild the scale from its preset name, so the
        # system size must ride along explicitly — otherwise a custom
        # scaled(...) scale would silently fall back to the preset's n
        spec_overrides = dict(overrides)
        spec_overrides["n"] = spec.topology.n
        specs = compile_specs(
            scenario,
            protocols,
            scale.name,
            trials,
            spec_overrides,
            params=param_overrides,
        )
        display = dict(overrides)
        for name, param_over in param_overrides.items():
            for param, value in param_over.items():
                display[f"{name}.{param}"] = value
        prepared.append((spec, trials, display, len(specs)))
        all_specs.extend(specs)

    # consume the campaign's stream incrementally: each protocol's
    # trials aggregate as soon as they arrive, so peak memory holds one
    # chunk (plus the backend's reorder buffer) instead of every
    # TrialResult of the whole batch.  Submission order is combo-major
    # then protocol-major, so consecutive islice() chunks line up
    # exactly with the old materialize-then-slice aggregation.
    stream = campaign.run_stream(all_specs)

    reports: List[ComparisonResult] = []
    for spec, trials, overrides, count in prepared:
        rows = []
        for protocol in protocols:
            chunk = list(islice(stream, trials))
            if len(chunk) != trials:
                raise ValidationError(
                    f"campaign stream ended early: expected {trials} "
                    f"trials for {protocol!r}, got {len(chunk)}"
                )
            rows.append(protocol_row(protocol, chunk))
        reports.append(
            ComparisonResult(
                scenario=scenario,
                description=spec.description,
                scale=scale.name,
                trials=trials,
                overrides=overrides,
                rows=tuple(rows),
            )
        )
    return reports


def scenario_report(
    scenario: str,
    protocols: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    trials: Optional[int] = None,
    campaign: Optional[Campaign] = None,
    overrides: Optional[Dict[str, float]] = None,
) -> ComparisonResult:
    """Run one scenario across protocols and aggregate the comparison.

    Args:
        scenario: built-in scenario name.
        protocols: protocol subset (default: the registry's
            ``default_compare`` set — adaptive/optimal/gossip/flooding);
            names and aliases resolve through the protocol registry.
        scale: sizing preset (default: ambient scale).
        trials: seeded trials per protocol (default: scale-derived).
        campaign: execution engine (default: serial, cache-less).
        overrides: sweep overrides — ``n``, ``loss``, ``crash``,
            ``duration`` flow into the trial task (``trials`` is handled
            via the ``trials`` argument).
    """
    combo: Dict[str, float] = dict(overrides or {})
    if trials is not None:
        combo["trials"] = trials
    return scenario_reports(
        scenario, [combo], protocols=protocols, scale=scale, campaign=campaign
    )[0]
