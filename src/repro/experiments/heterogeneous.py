"""Heterogeneous-environment extension (Section 7, future work).

The paper's Section 5 deliberately evaluates with *uniform* failure
probabilities and notes this "counts against" the adaptive algorithm;
Section 7 expects larger gains once probabilities differ across the
system.  This experiment quantifies that: it compares the
reference/optimal message ratio on

* a **uniform** configuration (every link loses with ``mean_loss``), and
* a **heterogeneous** one with the same *mean* loss but per-link values
  spread over ``[0, 2 * mean_loss]``,

so any ratio difference is attributable purely to the spread the
adaptive/optimal side can exploit (picking the reliable links) and the
oblivious baseline cannot.

Both configurations rebuild deterministically from scalars (the
heterogeneous one from its own ``("hetero", connectivity, seed)``
stream), so the phase-1 trials (round budget + optimal cost, one per
compared configuration) and the measurement trials are campaign specs
like the Figure 4 ones and ``repro experiments run heterogeneous``
parallelises the comparison.  Protocol stacks deploy through the protocol registry
(via the shared gossip trial runner), never by direct construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Campaign, TrialSpec, chunked
from repro.experiments.figure4 import (
    measure_reference_once,
    phase1_reference,
    run_phase1,
)
from repro.experiments.runner import ExperimentScale
from repro.results.schema import ResultSet
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph
from repro.util.rng import RandomSource

MODES = ("uniform", "hetero")


def _build_config(
    mode: str,
    n: int,
    connectivity: int,
    mean_loss: float,
    spread: float,
    seed: int,
) -> Tuple[Graph, Configuration]:
    """Rebuild the compared configurations from their defining scalars."""
    graph = k_regular(n, connectivity)
    if mode == "uniform":
        return graph, Configuration.uniform(graph, loss=mean_loss)
    if mode == "hetero":
        lo = max(0.0, mean_loss * (1.0 - spread))
        hi = min(1.0, mean_loss * (1.0 + spread))
        return graph, Configuration.random_uniform(
            graph,
            RandomSource("hetero", connectivity, seed),
            crash_range=(0.0, 0.0),
            loss_range=(lo, hi),
        )
    raise ValueError(f"mode must be 'uniform' or 'hetero', got {mode!r}")


def _seed_tag(mode: str, connectivity: int, mean_loss: float, seed: int) -> str:
    return f"het-{mode}-{connectivity}-{mean_loss}-{seed}"


def hetero_phase1_task(
    *,
    mode: str,
    n: int,
    connectivity: int,
    mean_loss: float,
    spread: float,
    seed: int,
    k_target: float,
    trials: int,
) -> Dict[str, float]:
    """Campaign task: round budget and optimal cost of one compared config."""
    graph, config = _build_config(mode, n, connectivity, mean_loss, spread, seed)
    seed_tag = _seed_tag(mode, connectivity, mean_loss, seed)
    return phase1_reference(graph, config, seed_tag, k_target, trials)


def hetero_measurement_task(
    *,
    mode: str,
    n: int,
    connectivity: int,
    mean_loss: float,
    spread: float,
    seed: int,
    k_target: float,
    rounds: int,
    trial: int,
) -> Dict[str, float]:
    """Campaign task: one gossip measurement trial on a compared config."""
    _, config = _build_config(mode, n, connectivity, mean_loss, spread, seed)
    messages = measure_reference_once(
        config,
        _seed_tag(mode, connectivity, mean_loss, seed),
        trial,
        rounds,
        k_target,
    )
    return {"messages": messages}


TASK_FNS = (
    "repro.experiments.heterogeneous:hetero_phase1_task",
    "repro.experiments.heterogeneous:hetero_measurement_task",
)


def _point_params(
    mode: str,
    connectivity: int,
    mean_loss: float,
    scale: ExperimentScale,
    spread: float,
    seed: int,
) -> Dict[str, object]:
    """The spec parameters both tasks of one compared config share."""
    return {
        "mode": mode,
        "n": scale.n,
        "connectivity": int(connectivity),
        "mean_loss": float(mean_loss),
        "spread": float(spread),
        "seed": int(seed),
        "k_target": scale.k_target,
    }


def _aggregate_point(
    connectivity: int,
    phase1: Sequence[Dict[str, float]],
    measurements: Sequence[Sequence[Dict[str, float]]],
) -> Dict[str, float]:
    """Fold one point's phase-1 result and measurement chunk per mode."""
    out: Dict[str, float] = {"connectivity": float(connectivity)}
    for mode, result, chunk in zip(MODES, phase1, measurements):
        optimal = result["optimal_messages"]
        reference = Campaign.aggregate(chunk, "messages").mean
        out[f"{mode}_optimal"] = optimal
        out[f"{mode}_reference"] = reference
        out[f"{mode}_ratio"] = reference / optimal
    out["gain_delta"] = out["hetero_ratio"] - out["uniform_ratio"]
    return out


def _points(
    scale: ExperimentScale, connectivities: Optional[Sequence[int]]
) -> List[int]:
    connectivities = tuple(
        connectivities or [k for k in scale.connectivities if k <= 12]
    )
    return [k for k in connectivities if k < scale.n]


def heterogeneity_build(
    scale: ExperimentScale,
    campaign: Campaign,
    mean_loss: float = 0.05,
    connectivities: Optional[Sequence[int]] = None,
    spread: float = 1.0,
    seed: int = 0,
) -> Tuple[List[Dict[str, float]], List[TrialSpec]]:
    """Phase 1 + the measurement specs of the comparison.

    As with Figure 4, phase 1 runs through ``campaign`` eagerly; returns
    ``(phase-1 results, measurement specs)`` — the caller (the
    experiment registry) executes the specs and hands both result lists
    to :func:`heterogeneity_aggregate`.

    Args:
        spread: half-width of the loss distribution relative to the mean
            (1.0 means per-link losses uniform over [0, 2*mean]).
    """
    points = [
        _point_params(mode, k, mean_loss, scale, spread, seed)
        for k in _points(scale, connectivities)
        for mode in MODES
    ]
    return run_phase1(scale, campaign, TASK_FNS, points)


def heterogeneity_aggregate(
    scale: ExperimentScale,
    phase1: Sequence[Dict[str, float]],
    measurements: Sequence[Dict[str, float]],
    mean_loss: float = 0.05,
    connectivities: Optional[Sequence[int]] = None,
) -> ResultSet:
    """Fold ordered phase-1 and measurement results into the comparison table."""
    uniform: Dict[int, float] = {}
    hetero: Dict[int, float] = {}
    chunks = list(chunked(measurements, scale.trials))
    for k, point_phase1, point_chunks in zip(
        _points(scale, connectivities),
        chunked(phase1, len(MODES)),
        chunked(chunks, len(MODES)),
    ):
        point = _aggregate_point(k, point_phase1, point_chunks)
        uniform[k] = point["uniform_ratio"]
        hetero[k] = point["hetero_ratio"]
    return ResultSet.from_curves(
        "heterogeneous",
        "Extension - heterogeneous environments "
        f"(mean L={mean_loss}, equal-mean comparison)",
        "connectivity (links/process)",
        [("ratio (uniform L)", uniform), ("ratio (heterogeneous L)", hetero)],
    )
