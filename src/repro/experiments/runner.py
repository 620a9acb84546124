"""Shared experiment plumbing: scales, sweep grids, network factories.

The figure modules build their trial grids from an :class:`ExperimentScale`
and execute them through :class:`repro.experiments.campaign.Campaign`
(serially by default; in parallel with caching under ``repro experiments
run``).
This module owns the sizing presets and the seed-derivation helpers both
paths share.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkOptions
from repro.topology.configuration import Configuration
from repro.util.rng import RandomSource, SeedLike

#: Environment variable selecting the benchmark scale preset.
SCALE_ENV = "REPRO_BENCH_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing knobs shared by the figure experiments.

    Attributes:
        name: preset label.
        n: process count (paper: 100).
        k_target: reliability target ``K`` (paper: 0.9999 — see
            DESIGN.md §3 note 7 on why the default is 0.99).
        connectivities: x-axis of Figures 4/5.
        trials: measurement repetitions per point.
        calibration_trials: trials used when calibrating gossip rounds.
        convergence_deadline: simulated-time cap for Figures 5/6.
        figure6_sizes: x-axis of Figure 6 (paper: 100..240).
    """

    name: str
    n: int
    k_target: float
    connectivities: Tuple[int, ...]
    trials: int
    calibration_trials: int
    convergence_deadline: float
    figure6_sizes: Tuple[int, ...]

    def convergence_trials(self, override: Optional[int] = None) -> int:
        """Trials per convergence point (Figures 5/6 run fewer, >= 3)."""
        if override is not None:
            return override
        return max(3, self.trials // 5)


QUICK = ExperimentScale(
    name="quick",
    n=16,
    k_target=0.95,
    connectivities=(2, 4, 6),
    trials=8,
    calibration_trials=20,
    convergence_deadline=1500.0,
    figure6_sizes=(16, 24, 32),
)

DEFAULT = ExperimentScale(
    name="default",
    n=30,
    k_target=0.99,
    connectivities=(2, 4, 8, 12, 16),
    trials=20,
    calibration_trials=60,
    convergence_deadline=3000.0,
    figure6_sizes=(24, 36, 48, 60),
)

FULL = ExperimentScale(
    name="full",
    n=100,
    k_target=0.9999,
    connectivities=(2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
    trials=50,
    calibration_trials=200,
    convergence_deadline=6000.0,
    figure6_sizes=(100, 140, 180, 220, 240),
)

_PRESETS: Dict[str, ExperimentScale] = {
    "quick": QUICK,
    "default": DEFAULT,
    "full": FULL,
}


def current_scale(override: Optional[str] = None) -> ExperimentScale:
    """Resolve the active scale (arg > env ``REPRO_BENCH_SCALE`` > default)."""
    name = override or os.environ.get(SCALE_ENV, "default")
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown scale {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


def scaled(scale: ExperimentScale, **overrides) -> ExperimentScale:
    """Derive a scale with some fields replaced."""
    return replace(scale, **overrides)


def variant_axes(
    variant: str,
    values: Optional[Sequence[float]],
    defaults: Dict[str, Tuple[float, ...]],
    titles: Dict[str, str],
) -> Tuple[Tuple[float, ...], str, str]:
    """The (values, curve label, title) triple of a crash/loss variant.

    Figures 4 and 5 both come in a crash-probability (a) and a
    loss-probability (b) flavour; this is the one validation/defaulting
    path behind both modules' ``_variant_axes``.
    """
    if variant not in ("crash", "loss"):
        raise ValueError(f"variant must be 'crash' or 'loss', got {variant!r}")
    label = "P" if variant == "crash" else "L"
    return tuple(values or defaults[variant]), label, titles[variant]


def point_grid(
    scale: ExperimentScale, values: Sequence[float]
) -> List[Tuple[float, int]]:
    """The (probability value, connectivity) grid of Figures 4/5.

    Connectivities that cannot exist at ``scale.n`` are dropped, exactly
    as the serial builders always did.
    """
    return [
        (value, connectivity)
        for value in values
        for connectivity in scale.connectivities
        if connectivity < scale.n
    ]


def make_network(
    config: Configuration,
    seed: SeedLike,
    *extra_seed: SeedLike,
    options: Optional[NetworkOptions] = None,
) -> Network:
    """Fresh simulator + network with a derived deterministic seed."""
    sim = Simulator()
    rng = RandomSource("repro-experiment", seed, *extra_seed)
    return Network(sim, config, rng, options=options)

