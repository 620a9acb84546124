"""Per-layer tracing from outside the program.

:class:`Tracer` rebinds public callables of ``repro`` at run time — class
attributes, and every ``repro.*`` module global bound to a wrapped
module-level function — with timing wrappers, and puts the originals back
afterwards; no file under ``src/`` changes.  Each wrapper records a span
(label, parent, slot, start, end) in memory.  A layer is a module name;
its ``self_s`` is its spans' duration minus the part their child spans
cover, so the layers' self times partition the traced pass.

Known limit: only listed callables are wrapped.  Whatever
``Simulator.run`` does not hand to a wrapped callee — the heap, the
delivery closure, unwrapped callback bodies — stays in
``sim.engine.self_s``.  Finer attribution needs spans inside the
program, which is a later issue.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: (layer, module, class, methods) — plain methods wrapped one span a call.
CLASS_TARGETS = [
    ("sim.engine", "repro.sim.engine", "Simulator", ("schedule", "schedule_at")),
    ("sim.network", "repro.sim.network", "Network", ("send", "broadcast_to_neighbors")),
    ("sim.link", "repro.sim.link", "LossyLinkLayer", ("transmit",)),
    ("sim.crash", "repro.sim.crash", "IidCrashModel", ("crashed_step",)),
    ("sim.crash", "repro.sim.crash", "MarkovCrashModel", ("crashed_step",)),
    ("sim.crash", "repro.sim.crash", "NoCrashModel", ("crashed_step",)),
    ("sim.dynamics", "repro.sim.dynamics", "DynamicsDriver", ("install",)),
    (
        "sim.dynamics",
        "repro.sim.network",
        "Network",
        ("replace_configuration", "set_crash_model"),
    ),
    ("sim.monitors", "repro.sim.monitors", "BroadcastMonitor", ("delivered",)),
    ("util.rng", "repro.util.rng", "RandomSource", ("__init__", "child")),
    ("topology", "repro.scenario.schema", "TopologySpec", ("build_with_tiers",)),
    (
        "topology",
        "repro.topology.configuration",
        "Configuration",
        ("__init__", "uniform"),
    ),
    (
        "core.viewtable",
        "repro.core.viewtable",
        "VectorView",
        ("handle_heartbeat", "emit_heartbeat", "peek_snapshot", "staleness_sweep"),
    ),
    (
        "membership.sampler",
        "repro.membership.sampler",
        "PeerSampler",
        ("begin_exchange", "handle"),
    ),
    ("kvstore.replica", "repro.kvstore.replica", "KVReplica", ("put", "get")),
    ("kvstore.replica", "repro.kvstore.metrics", "KVMetricsMonitor", ("on_apply",)),
    (
        "kvstore.clocks",
        "repro.kvstore.clocks",
        "VectorClock",
        ("merge", "advance", "dominated_by", "compare", "items"),
    ),
    ("experiments.registry", "repro.experiments.registry", "ExperimentSpec", ("run",)),
    ("experiments.campaign", "repro.experiments.campaign", "TrialSpec", ("key",)),
    ("util.cache", "repro.util.cache", "TrialCache", ("get", "put")),
    ("results.store", "repro.results.store", "ResultStore", ("append", "check_writable")),
]

#: (layer, module, function) — rebound in every repro module that imported it.
FUNCTION_TARGETS = [
    ("util.rng", "repro.util.rng", "derive_seed"),
    ("sim.monitors", "repro.analysis.convergence", "views_converged"),
    ("core.mrt", "repro.core.mrt", "maximum_reliability_tree"),
    ("core.mrt", "repro.core.mrt", "reachable_processes"),
    ("core.optimize", "repro.core.optimize", "optimize"),
    ("core.reach", "repro.core.reach", "reach"),
    ("core.reach", "repro.core.reach", "log_reach"),
    ("protocols.gossip", "repro.protocols.gossip", "run_gossip_trial"),
    ("protocols.gossip", "repro.protocols.gossip", "calibrate_rounds"),
    ("scenario.trial", "repro.scenario.trial", "run_scenario_trial"),
    ("experiments.campaign", "repro.experiments.campaign", "execute_spec"),
    ("util.cache", "repro.util.cache", "content_key"),
    ("api", "repro.api", "run_experiment"),
]

PROTOCOL_HOOKS = ("on_message", "on_timer", "broadcast")

#: Layer of the harness's own root span around each slot.
SLOT_LAYER = "slot"

_INHERITED = object()

#: Spans written in full to the trace file; aggregates always cover all.
SPAN_FILE_CAP = 250_000


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


class Tracer:
    """Span recorder plus the install/uninstall of its timing wrappers."""

    def __init__(self) -> None:
        self.labels: List[Tuple[str, str]] = []
        self._label_ids: Dict[Tuple[str, str], int] = {}
        self._label = array("i")
        self._parent = array("i")
        self._slot = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._current_slot = -1
        self._kv_depth = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._networks: List[object] = []
        self._campaigns: List[object] = []
        #: counts read at span boundaries that are not span counts
        self.counts: Counter = Counter()

    # -- span recording ---------------------------------------------------------

    def _label_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._label_ids:
            self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return self._label_ids[key]

    def _open(self, label: int) -> int:
        index = len(self._start)
        stack = self._stack
        self._label.append(label)
        self._parent.append(stack[-1] if stack else -1)
        self._slot.append(self._current_slot)
        self._end.append(0.0)
        stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def traced(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        label = self._label_id(layer, name)
        labels, parents, slots = self._label, self._parent, self._slot
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        # _open/_close spelled out: two calls fewer on a path taken a
        # million times a pass
        def wrapper(*args, **kwargs):
            index = len(starts)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            slots.append(self._current_slot)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_generator(self, fn: Callable, layer: str, name: str) -> Callable:
        """A generator function wrapped with one span per resumption.

        The consumer's work between two ``next`` calls is not the
        generator's, so a span covers only the stretch in which the
        generator body runs.
        """
        label = self._label_id(layer, name)

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = self._open(label)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def slot(self, index: int, name: str) -> Iterator[None]:
        """The root span of one slot; counts RNG draws under a ledger."""
        from repro.util.rng import DrawLedger, ledger_scope

        self._current_slot = index
        ledger = DrawLedger()
        span = self._open(self._label_id(SLOT_LAYER, name))
        try:
            with ledger_scope(ledger):
                yield
        finally:
            self._close(span)
            self._current_slot = -1
            self.counts["util.rng.draws"] += ledger.total
            self._read_boundaries()

    def _read_boundaries(self) -> None:
        """Fold in the counters of objects the slot created, then drop them."""
        from repro.sim.trace import DropReason

        for network in self._networks:
            stats = network.stats
            self.counts["sim.network.sends"] += stats.sent()
            self.counts["sim.network.delivered"] += stats.delivered()
            for reason in DropReason:
                key = "sim.network.dropped_" + reason.name.lower()
                self.counts[key] += stats.dropped(reason)
        for campaign in self._campaigns:
            self.counts["experiments.campaign.executed"] += campaign.executed
            self.counts["experiments.campaign.cached"] += campaign.cached
        del self._networks[:], self._campaigns[:]

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        # an inherited attribute is shadowed, not replaced: undo by deleting
        original = (
            inspect.getattr_static(owner, attr) if attr in vars(owner) else _INHERITED
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, layer: str, wrap=None) -> None:
        wrap = wrap or self.traced
        raw = inspect.getattr_static(cls, attr)
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__, layer, name)))
        else:
            self._set(cls, attr, wrap(raw, layer, name))

    def _wrap_function(self, module_name: str, attr: str, wrapper: Callable) -> None:
        """Rebind ``attr`` wherever a repro module holds the original."""
        original = getattr(importlib.import_module(module_name), attr)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def install(self) -> None:
        # the api module imports every registry, so every SimProcess
        # subclass exists before __subclasses__() is walked
        importlib.import_module("repro.api")
        from repro.protocols.registry import protocol_specs

        protocol_specs()
        for layer, module_name, cls_name, attrs in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in attrs:
                self._wrap_method(cls, attr, layer)
        for layer, module_name, attr in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            self._wrap_function(
                module_name, attr, self.traced(original, layer, attr)
            )
        self._install_specials()

    def _install_specials(self) -> None:
        from repro.core.broadcast import ReliableBroadcastProcess
        from repro.exec.serial import SerialBackend
        from repro.experiments.campaign import Campaign
        from repro.kvstore import trial as kv_trial
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.process import SimProcess

        counts = self.counts

        # events: read executed_events where run returns
        traced_run = self.traced(Simulator.run, "sim.engine", "Simulator.run")

        def run(sim, *args, **kwargs):
            before = sim.executed_events
            try:
                return traced_run(sim, *args, **kwargs)
            finally:
                counts["sim.engine.events"] += sim.executed_events - before

        self._set(Simulator, "run", run)

        # network.stats is final only when the slot ends; keep the network
        network_start = Network.start

        def start(network):
            self._networks.append(network)
            return network_start(network)

        self._set(Network, "start", start)

        traced_stream = self.traced_generator(
            Campaign.run_stream, "experiments.campaign", "Campaign.run_stream"
        )

        def run_stream(campaign, specs):
            specs = list(specs)
            counts["experiments.campaign.specs"] += len(specs)
            if not any(campaign is seen for seen in self._campaigns):
                self._campaigns.append(campaign)
            return traced_stream(campaign, specs)

        self._set(Campaign, "run_stream", run_stream)
        self._wrap_method(SerialBackend, "submit", "exec", self.traced_generator)

        # inside a KV trial a delivery is the replica's hold-back work
        traced_kv_trial = self.traced(
            kv_trial.run_kv_trial, "scenario.trial", "run_kv_trial"
        )

        def run_kv_trial(*args, **kwargs):
            self._kv_depth += 1
            try:
                result = traced_kv_trial(*args, **kwargs)
            finally:
                self._kv_depth -= 1
            counts["kvstore.replica.buffer_max"] = max(
                counts["kvstore.replica.buffer_max"], int(result["kv_buffer_max"])
            )
            return result

        self._wrap_function("repro.kvstore.trial", "run_kv_trial", run_kv_trial)

        raw_deliver = ReliableBroadcastProcess.deliver
        deliver_kv = self.traced(
            raw_deliver, "kvstore.replica", "ReliableBroadcastProcess.deliver"
        )
        deliver_plain = self.traced(
            raw_deliver, "protocols", "ReliableBroadcastProcess.deliver"
        )

        def deliver(process, mid, payload):
            if self._kv_depth:
                return deliver_kv(process, mid, payload)
            return deliver_plain(process, mid, payload)

        self._set(ReliableBroadcastProcess, "deliver", deliver)

        # periodic protocol work: the action runs inside a protocols span
        raw_set_periodic = SimProcess.set_periodic

        def set_periodic(process, period, name, action):
            traced_action = self.traced(action, "protocols", f"periodic:{name}")
            return raw_set_periodic(process, period, name, traced_action)

        self._set(SimProcess, "set_periodic", set_periodic)

        pending = [SimProcess]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for hook in PROTOCOL_HOOKS:
                if hook in vars(cls):
                    self._wrap_method(cls, hook, "protocols")

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self._label, dtype=np.intc),
            np.frombuffer(self._parent, dtype=np.intc),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
        )

    def label_table(self) -> List[Dict[str, object]]:
        """Per label: layer, name, span count, inclusive and self seconds."""
        if not len(self._start):
            return []
        label, parent, start, end = self._arrays()
        size = len(self.labels)
        count = np.bincount(label, minlength=size)
        total = np.bincount(label, weights=end - start, minlength=size)
        own = np.bincount(
            label, weights=self_times(start, end, parent), minlength=size
        )
        return [
            {
                "layer": layer,
                "name": name,
                "spans": int(count[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, (layer, name) in enumerate(self.labels)
        ]

    def span_count(self) -> int:
        return len(self._start)

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write the spans (the first SPAN_FILE_CAP in full) and aggregates."""
        written = min(self.span_count(), SPAN_FILE_CAP)
        origin = self._start[0] if written else 0.0

        def micros(values) -> List[int]:
            return [round((v - origin) * 1e6) for v in values[:written]]

        document = dict(header)
        document.update(
            {
                "note": (
                    "spans[i] = (label, parent span index or -1, slot, start_us, "
                    "end_us); labels[label] = (layer, name); times are "
                    "perf_counter microseconds since the first span"
                ),
                "labels": [list(label) for label in self.labels],
                "spans_total": self.span_count(),
                "spans_written": written,
                "spans": {
                    "label": self._label[:written].tolist(),
                    "parent": self._parent[:written].tolist(),
                    "slot": self._slot[:written].tolist(),
                    "start_us": micros(self._start),
                    "end_us": micros(self._end),
                },
                "label_table": self.label_table(),
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer counts and self times of everything ``tracer`` recorded."""
    table = tracer.label_table()
    spans: Counter = Counter()
    self_s: Counter = Counter()
    by_name: Counter = Counter()
    total_s: Counter = Counter()
    for row in table:
        spans[row["layer"]] += row["spans"]
        self_s[row["layer"]] += row["self_s"]
        by_name[(row["layer"], row["name"])] += row["spans"]
        total_s[(row["layer"], row["name"])] += row["total_s"]
    counts = tracer.counts

    def calls(layer: str, *names: str) -> int:
        return sum(by_name[(layer, name)] for name in names)

    def per(seconds: float, count: float) -> float:
        return seconds * 1e6 / count if count else 0.0

    periodic = sum(
        n for (layer, name), n in by_name.items()
        if layer == "protocols" and name.startswith("periodic:")
    )
    hooks = Counter()
    for (layer, name), n in by_name.items():
        if layer == "protocols" and "." in name:
            hooks[name.rsplit(".", 1)[1]] += n

    m: Dict[str, float] = {}
    m["sim.engine.events"] = counts["sim.engine.events"]
    m["sim.engine.schedules"] = calls(
        "sim.engine", "Simulator.schedule", "Simulator.schedule_at"
    )
    m["sim.engine.us_per_event"] = per(self_s["sim.engine"], m["sim.engine.events"])
    m["sim.network.sends"] = counts["sim.network.sends"]
    m["sim.network.delivered"] = counts["sim.network.delivered"]
    for reason in ("sender_crash", "link_loss", "receiver_crash"):
        m[f"sim.network.dropped_{reason}"] = counts[f"sim.network.dropped_{reason}"]
    m["sim.network.delivered_ratio"] = (
        m["sim.network.delivered"] / m["sim.network.sends"]
        if m["sim.network.sends"]
        else 0.0
    )
    m["sim.network.us_per_send"] = per(self_s["sim.network"], m["sim.network.sends"])
    m["sim.link.transmits"] = spans["sim.link"]
    m["sim.crash.steps"] = spans["sim.crash"]
    m["sim.dynamics.events"] = calls(
        "sim.dynamics", "Network.replace_configuration", "Network.set_crash_model"
    )
    m["sim.monitors.polls"] = calls("sim.monitors", "views_converged")
    m["sim.monitors.deliveries"] = calls("sim.monitors", "BroadcastMonitor.delivered")
    m["util.rng.draws"] = counts["util.rng.draws"]
    m["util.rng.streams"] = calls("util.rng", "RandomSource.__init__")
    m["util.rng.us_per_stream"] = per(self_s["util.rng"], m["util.rng.streams"])
    m["topology.builds"] = spans["topology"]
    m["core.viewtable.merges"] = calls("core.viewtable", "VectorView.handle_heartbeat")
    m["core.viewtable.snapshots"] = calls(
        "core.viewtable", "VectorView.emit_heartbeat", "VectorView.peek_snapshot"
    )
    m["core.viewtable.sweeps"] = calls("core.viewtable", "VectorView.staleness_sweep")
    m["core.viewtable.us_per_merge"] = per(
        self_s["core.viewtable"], m["core.viewtable.merges"]
    )
    m["core.mrt.builds"] = calls("core.mrt", "maximum_reliability_tree")
    m["core.optimize.calls"] = spans["core.optimize"]
    m["core.reach.calls"] = spans["core.reach"]
    m["protocols.callbacks"] = hooks["on_message"] + hooks["on_timer"] + periodic
    m["protocols.broadcasts"] = hooks["broadcast"]
    m["protocols.gossip.trial_runs"] = calls("protocols.gossip", "run_gossip_trial")
    # inclusive: the simulations a figure runs to calibrate and to measure
    m["protocols.gossip.trial_s"] = total_s[("protocols.gossip", "run_gossip_trial")]
    m["membership.sampler.exchanges"] = calls(
        "membership.sampler", "PeerSampler.begin_exchange"
    )
    m["membership.sampler.handled"] = calls("membership.sampler", "PeerSampler.handle")
    m["kvstore.replica.puts"] = calls("kvstore.replica", "KVReplica.put")
    m["kvstore.replica.gets"] = calls("kvstore.replica", "KVReplica.get")
    m["kvstore.replica.applies"] = calls("kvstore.replica", "KVMetricsMonitor.on_apply")
    m["kvstore.replica.buffer_max"] = counts["kvstore.replica.buffer_max"]
    m["kvstore.replica.us_per_apply"] = per(
        self_s["kvstore.replica"], m["kvstore.replica.applies"]
    )
    m["kvstore.clocks.merges"] = calls(
        "kvstore.clocks", "VectorClock.merge", "VectorClock.advance"
    )
    m["kvstore.clocks.compares"] = calls(
        "kvstore.clocks", "VectorClock.dominated_by", "VectorClock.compare"
    )
    m["kvstore.clocks.scans"] = calls("kvstore.clocks", "VectorClock.items")
    m["scenario.trial.trials"] = spans["scenario.trial"]
    m["experiments.registry.runs"] = spans["experiments.registry"]
    specs = counts["experiments.campaign.specs"]
    m["experiments.campaign.specs"] = specs
    m["experiments.campaign.executed"] = counts["experiments.campaign.executed"]
    m["experiments.campaign.cached"] = counts["experiments.campaign.cached"]
    resolved = m["experiments.campaign.executed"] + m["experiments.campaign.cached"]
    m["experiments.campaign.hit_ratio"] = (
        m["experiments.campaign.cached"] / resolved if resolved else 0.0
    )
    m["experiments.campaign.us_per_spec"] = per(self_s["experiments.campaign"], specs)
    m["util.cache.gets"] = calls("util.cache", "TrialCache.get")
    m["util.cache.puts"] = calls("util.cache", "TrialCache.put")
    m["exec.serial.self_s"] = self_s["exec"]
    m["results.store.appends"] = calls("results.store", "ResultStore.append")
    m["results.store.us_per_append"] = per(
        self_s["results.store"], m["results.store.appends"]
    )
    m["api.calls"] = spans["api"]
    m["trace.spans"] = tracer.span_count()
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    total = sum(self_s.values())
    m["trace.unattributed_frac"] = self_s[SLOT_LAYER] / total if total else 0.0
    return m


#: Layers reported with a ``<layer>.self_s`` metric.  Together with the
#: harness's own slot span (``trace.unattributed_frac``) and ``exec``
#: (``exec.serial.self_s``) they partition the traced pass.
SELF_TIME_LAYERS = (
    "sim.engine",
    "sim.network",
    "sim.link",
    "sim.crash",
    "sim.dynamics",
    "sim.monitors",
    "util.rng",
    "topology",
    "core.viewtable",
    "core.mrt",
    "core.optimize",
    "core.reach",
    "protocols",
    "protocols.gossip",
    "membership.sampler",
    "kvstore.replica",
    "kvstore.clocks",
    "scenario.trial",
    "experiments.registry",
    "experiments.campaign",
    "util.cache",
    "results.store",
    "api",
)
