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


def sized_scale(
    scale: ExperimentScale, params: object, trials_in_scale: bool
) -> ExperimentScale:
    """Apply the shared n / connectivity / trials axes to the scale.

    The ``--sweep`` semantics of ``repro experiments run``: ``n``
    replaces the system size first, swept connectivities must fit below
    the (possibly overridden) ``n`` — an explicitly requested value must
    never be silently dropped by :func:`fitting_connectivities`'
    ``connectivity < n`` filter — and ``trials`` lands in the scale only
    for the experiments that read ``scale.trials`` (Figures 4 and the
    heterogeneous study; the convergence experiments take trials as an
    explicit argument).
    """
    n = getattr(params, "n", None)
    if n is not None:
        scale = scaled(scale, n=int(n))
    connectivity = getattr(params, "connectivity", None)
    if connectivity:
        bad = [k for k in connectivity if k >= scale.n]
        if bad:
            raise ValidationError(
                f"swept connectivity values {bad} must be below n={scale.n} "
                "(sweep n=... too, or pick smaller values)"
            )
        scale = scaled(scale, connectivities=tuple(connectivity))
    trials = getattr(params, "trials", None)
    if trials_in_scale and trials is not None:
        scale = scaled(scale, trials=int(trials))
    return scale


def variant_axes(
    variant: str, params: object, defaults: Dict[str, Tuple[float, ...]]
) -> Tuple[Tuple[float, ...], str]:
    """The (values, curve label) pair of a crash/loss variant.

    Figures 4 and 5 both come in a crash-probability (a) and a
    loss-probability (b) flavour, whose values are the ``params`` axis
    named like the variant; this is the one validation/defaulting path
    behind both modules' ``cells``.
    """
    if variant not in ("crash", "loss"):
        raise ValueError(f"variant must be 'crash' or 'loss', got {variant!r}")
    label = "P" if variant == "crash" else "L"
    return tuple(getattr(params, variant) or defaults[variant]), label


def fitting_connectivities(connectivities: Sequence[int], n: int) -> List[int]:
    """The connectivities that can exist among ``n`` processes (``k < n``).

    The others are dropped, exactly as the serial builders always did;
    when none is left the grid is refused rather than run as an empty
    table.
    """
    fitting = [k for k in connectivities if k < n]
    if not fitting:
        raise ValidationError(
            f"no connectivity of {list(connectivities)} fits below "
            f"n={n} (sweep connectivity=... or a larger n)"
        )
    return fitting


def point_grid(
    scale: ExperimentScale, values: Sequence[float]
) -> List[Tuple[float, int]]:
    """The (probability value, connectivity) grid of Figures 4/5, over
    the :func:`fitting_connectivities` of ``scale``."""
    fitting = fitting_connectivities(scale.connectivities, scale.n)
    return [(value, connectivity) for value in values for connectivity in fitting]


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

