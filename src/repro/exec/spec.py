"""Backend spec strings: ``"serial"``, ``"process:8"``, ``"shard:8:32"``.

One grammar serves the CLI (``--backend``) and the API (``backend=``)::

    NAME[:ARG[:ARG]][+cache[=DIR]]

where NAME picks the backend (``process`` is a spelling of ``shard``),
the integer ARGs are the backend's positional constructor arguments
(``workers`` then, for ``shard``, the shard count) and the optional
``+cache`` suffix attaches a shared :class:`~repro.util.cache.TrialCache`
(default directory, or ``DIR``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.errors import ValidationError
from repro.exec.backend import ExecutionBackend
from repro.exec.serial import SerialBackend
from repro.exec.shard import ShardQueueBackend
from repro.util.cache import TrialCache


@dataclass(frozen=True)
class BackendInfo:
    """Registry row for ``repro backends list``."""

    name: str
    syntax: str
    description: str
    factory: Callable[..., ExecutionBackend]  # called with the integer ARGs
    max_args: int


BACKENDS: Tuple[BackendInfo, ...] = (
    BackendInfo(
        name="serial",
        syntax="serial",
        description="every trial in-process, in submission order",
        factory=SerialBackend,
        max_args=0,
    ),
    BackendInfo(
        name="process",
        syntax="process[:N]",
        description="spelling of shard[:N]: N workers (default: all CPUs)",
        factory=ShardQueueBackend,
        max_args=1,
    ),
    BackendInfo(
        name="shard",
        syntax="shard[:N[:S]]",
        description=(
            "S content-keyed shards (default 4xN) on N work-stealing "
            "workers; died shards retry via the shared cache"
        ),
        factory=ShardQueueBackend,
        max_args=2,
    ),
)


def backend_specs() -> List[BackendInfo]:
    """The registered backends, for listing and tooling."""
    return list(BACKENDS)


def parse_backend(text: str) -> ExecutionBackend:
    """Build an :class:`ExecutionBackend` from its spec string."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError(f"backend spec must be a non-empty string, got {text!r}")
    body, plus, suffix = text.strip().partition("+")
    cache: Optional[TrialCache] = None
    if plus:
        flag, _, directory = suffix.partition("=")
        if flag != "cache":
            raise ValidationError(
                f"unknown backend suffix {'+' + suffix!r}: only '+cache[=DIR]'"
            )
        cache = TrialCache(directory or None)
    name, _, rest = body.partition(":")
    name = name.strip()
    info = next((entry for entry in BACKENDS if entry.name == name), None)
    if info is None:
        from repro.errors import did_you_mean

        _, hint = did_you_mean(name, [entry.name for entry in BACKENDS])
        raise ValidationError(f"unknown backend {name!r}{hint}")
    args: List[int] = []
    if rest:
        for part in rest.split(":"):
            try:
                args.append(int(part))
            except ValueError:
                raise ValidationError(
                    f"backend spec {text!r}: {part!r} is not an integer"
                ) from None
    if len(args) > info.max_args:
        raise ValidationError(
            f"backend {name!r} takes at most {info.max_args} "
            f"argument(s) ({info.syntax}), got {len(args)}"
        )
    backend = info.factory(*args)
    if cache is not None:
        backend.cache = cache
    return backend


def resolve_backend(
    value: Union[str, ExecutionBackend]
) -> ExecutionBackend:
    """Accept a spec string or a ready backend instance."""
    if isinstance(value, ExecutionBackend):
        return value
    if isinstance(value, str):
        return parse_backend(value)
    raise ValidationError(
        "backend must be a spec string like 'process:4' or an "
        f"ExecutionBackend instance, got {type(value).__name__}"
    )
