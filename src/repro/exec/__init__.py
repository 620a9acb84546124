"""Pluggable campaign execution backends.

One streaming contract — :meth:`ExecutionBackend.submit` yields
``(spec, result)`` pairs in completion order — carries a campaign from
in-process serial execution to a work-stealing fleet of spawned
workers with simulated worker loss, without ever changing the
aggregate output: the campaign restores submission order, so results
are bit-identical at any worker count and any steal schedule.  The
backend that computes a fresh trial is the only code that writes it
to the trial cache.

Pick a backend by spec string (``"serial"``, ``"shard:8:32"``;
``"process:8"`` is another spelling of ``"shard:8"``; optional
``+cache[=DIR]`` suffix) via :func:`parse_backend`, or construct one
directly.
"""

from repro.exec.backend import ExecutionBackend, ShardRecord
from repro.exec.serial import SerialBackend
from repro.exec.shard import (
    FAULTS_ENV,
    FaultPlan,
    ShardQueueBackend,
)
from repro.exec.spec import (
    BackendInfo,
    backend_specs,
    parse_backend,
    resolve_backend,
)

__all__ = [
    "ExecutionBackend",
    "ShardRecord",
    "SerialBackend",
    "ShardQueueBackend",
    "FaultPlan",
    "FAULTS_ENV",
    "BackendInfo",
    "backend_specs",
    "parse_backend",
    "resolve_backend",
]
