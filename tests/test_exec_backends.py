"""Tests for the pluggable execution backends (repro.exec).

Covers the backend matrix bit-identity guarantee (serial == process ==
shard at any shard count and steal schedule), worker-loss resume with
zero lost trials and correct per-shard attempt provenance, the one
cache write per fresh trial, the spec-string grammar (``process:N`` is
a spelling of ``shard:N``), the ``backend=`` parameter of ``Campaign`` and
``repro.api``, the streaming reorder buffer's memory cap, and the CLI
surface (``--backend``, ``repro backends list``).
"""

import pytest

import repro.api as api
import repro.exec.shard as shard_module
from repro.cli import main
from repro.errors import ValidationError
from repro.exec import (
    FAULTS_ENV,
    FaultPlan,
    SerialBackend,
    ShardQueueBackend,
    parse_backend,
    resolve_backend,
)
from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.figure5 import CONVERGENCE_FN
from repro.results.schema import Provenance, diff_result_sets
from repro.util.cache import TrialCache


def _convergence_spec(
    trial: int, deadline: float = 1200.0, loss: float = 0.0
) -> TrialSpec:
    return TrialSpec.make(
        CONVERGENCE_FN,
        n=8,
        connectivity=2,
        crash=0.0,
        loss=loss,
        deadline=deadline,
        trial=trial,
    )


def _specs(count: int):
    return [_convergence_spec(trial) for trial in range(count)]


class CountingCache(TrialCache):
    """A TrialCache that records the keys of every ``get`` and ``put``."""

    def __init__(self, directory: str) -> None:
        super().__init__(directory)
        self.gets = []
        self.puts = []

    def get(self, key):
        self.gets.append(key)
        return super().get(key)

    def put(self, key, result, context=None):
        self.puts.append(key)
        super().put(key, result, context=context)


class TestSpecStrings:
    def test_serial(self):
        backend = parse_backend("serial")
        assert isinstance(backend, SerialBackend)
        assert backend.describe() == "serial"

    def test_process_workers(self):
        # `process:N` is another spelling of `shard:N`
        backend = parse_backend("process:3")
        assert isinstance(backend, ShardQueueBackend)
        assert backend.workers == 3
        assert backend.describe() == "shard:3"

    def test_shard_workers_and_shards(self):
        backend = parse_backend("shard:4:32")
        assert isinstance(backend, ShardQueueBackend)
        assert backend.workers == 4
        assert backend.shards == 32
        assert backend.describe() == "shard:4:32"

    def test_cache_suffix(self, tmp_path):
        backend = parse_backend(f"serial+cache={tmp_path}")
        assert backend.cache is not None
        assert backend.cache.directory == str(tmp_path)

    def test_unknown_backend(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            parse_backend("threads:4")

    def test_did_you_mean(self):
        with pytest.raises(ValidationError, match="did you mean 'shard'"):
            parse_backend("shards:4")

    def test_non_integer_arg(self):
        with pytest.raises(ValidationError, match="not an integer"):
            parse_backend("process:many")

    def test_too_many_args(self):
        with pytest.raises(ValidationError, match="at most"):
            parse_backend("serial:4")

    def test_unknown_suffix(self):
        with pytest.raises(ValidationError, match="suffix"):
            parse_backend("serial+turbo")

    def test_resolve_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_other_types(self):
        with pytest.raises(ValidationError, match="ExecutionBackend"):
            resolve_backend(4)

    def test_workers_validated(self):
        with pytest.raises(ValidationError, match="workers must be positive"):
            parse_backend("shard:0")

    @pytest.mark.parametrize(
        "sizes",
        [
            {"workers": 2.5},
            {"workers": True},
            {"workers": 0},
            {"workers": 2, "shards": 1.5},
            {"workers": 2, "shards": True},
            {"workers": 2, "shards": 0},
        ],
    )
    def test_shard_sizes_must_be_positive_ints(self, sizes):
        with pytest.raises(ValidationError, match="must be"):
            ShardQueueBackend(**sizes)


class TestBackendMatrix:
    """serial == process == shard, bit for bit, at any schedule."""

    def test_shard_matches_serial_inline(self):
        specs = _specs(6)
        serial = Campaign(backend="serial").run(specs)
        for shards in (1, 2, 3, 5, 7):
            backend = ShardQueueBackend(workers=2, shards=shards, inline=True)
            assert Campaign(backend=backend).run(specs) == serial

    def test_shard_matches_serial_spawn(self):
        # one real spawn-backed run: shards execute in worker processes
        specs = _specs(4)
        serial = Campaign(backend="serial").run(specs)
        backend = ShardQueueBackend(workers=2, shards=4, inline=False)
        assert Campaign(backend=backend).run(specs) == serial

    def test_process_matches_serial(self):
        specs = _specs(4)
        serial = Campaign(backend="serial").run(specs)
        assert Campaign(backend="process:2").run(specs) == serial

    def test_empty_batch(self):
        backend = ShardQueueBackend(workers=2, inline=True)
        assert Campaign(backend=backend).run([]) == []
        assert backend.shard_records() == []

    def test_one_spec_batch_never_starts_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-spec batch started a process pool")

        specs = _specs(1)
        serial = Campaign(backend="serial").run(specs)
        monkeypatch.setattr(shard_module, "ProcessPoolExecutor", no_pool)
        assert Campaign(backend="shard:4").run(specs) == serial


class TestOneCacheWriter:
    """The backend that computes a fresh trial is the only code caching it."""

    @pytest.mark.parametrize("backend", ["serial", "shard-inline"])
    def test_one_put_per_fresh_trial(self, tmp_path, monkeypatch, backend):
        specs = _specs(3)
        reference = Campaign(backend="serial").run(specs)
        # counted on the class: a shard worker opens its own TrialCache
        puts = []
        put = TrialCache.put

        def counting_put(self, key, result, context=None):
            puts.append(key)
            put(self, key, result, context=context)

        monkeypatch.setattr(TrialCache, "put", counting_put)
        cache = TrialCache(str(tmp_path))
        if backend == "shard-inline":
            backend = ShardQueueBackend(workers=2, cache=cache, inline=True)
        campaign = Campaign(backend=backend, cache=cache)
        assert campaign.run(specs) == reference
        assert sorted(puts) == sorted(spec.key() for spec in specs)


class TestWorkerLoss:
    def test_resume_recovers_from_cache(self, tmp_path):
        specs = _specs(6)
        serial = Campaign(backend="serial").run(specs)
        backend = ShardQueueBackend(
            workers=2,
            shards=3,
            cache=TrialCache(str(tmp_path)),
            fault_injector=FaultPlan.parse("2:1:1"),
            inline=True,
        )
        campaign = Campaign(backend=backend)
        assert campaign.run(specs) == serial  # zero lost trials
        records = {r.shard: r for r in backend.shard_records()}
        dead = records[2]
        assert dead.attempts == 2
        # the trial finished before the death was cached by the dying
        # worker and recovered — not recomputed — on retry
        assert dead.cached == 1
        assert sum(r.executed for r in records.values()) == len(specs)

    def test_resume_without_cache_recomputes(self):
        specs = _specs(6)
        serial = Campaign(backend="serial").run(specs)
        backend = ShardQueueBackend(
            workers=2,
            shards=3,
            fault_injector=FaultPlan.parse("2:1:1"),
            inline=True,
        )
        assert Campaign(backend=backend).run(specs) == serial
        records = {r.shard: r for r in backend.shard_records()}
        assert records[2].attempts == 2
        # one trial was computed, thrown away with the worker, and
        # computed again by the retry
        assert sum(r.executed for r in backend.shard_records()) == len(specs) + 1

    def test_death_after_finish_before_report(self):
        specs = _specs(6)
        serial = Campaign(backend="serial").run(specs)
        backend = ShardQueueBackend(
            workers=2,
            shards=3,
            fault_injector=FaultPlan.parse("1:1:99"),
            inline=True,
        )
        assert Campaign(backend=backend).run(specs) == serial
        records = {r.shard: r for r in backend.shard_records()}
        assert records[1].attempts == 2

    def test_repeated_deaths_eventually_give_up(self):
        # a plan that kills every attempt stops being consulted after
        # MAX_FAULT_ATTEMPTS, so the campaign still completes
        specs = _specs(4)
        serial = Campaign(backend="serial").run(specs)

        def always_dies(shard, attempt):
            return 0

        backend = ShardQueueBackend(
            workers=1, shards=2, fault_injector=always_dies, inline=True
        )
        assert Campaign(backend=backend).run(specs) == serial
        assert all(r.attempts >= 2 for r in backend.shard_records())

    def test_env_fault_plan(self, monkeypatch):
        specs = _specs(4)
        serial = Campaign(backend="serial").run(specs)
        monkeypatch.setenv(FAULTS_ENV, "0:1:0;1:1:0")
        backend = ShardQueueBackend(workers=2, shards=2, inline=True)
        assert Campaign(backend=backend).run(specs) == serial
        assert any(r.attempts == 2 for r in backend.shard_records())

    def test_fault_plan_parse_errors(self):
        with pytest.raises(ValidationError, match="shard:attempt:completed"):
            FaultPlan.parse("0:1")
        with pytest.raises(ValidationError, match="non-integer"):
            FaultPlan.parse("a:b:c")


class TestStreaming:
    """The materialize-then-aggregate memory bug stays fixed."""

    def test_serial_stream_buffers_at_most_one(self):
        specs = _specs(5)
        campaign = Campaign(backend="serial")
        streamed = list(campaign.run_stream(specs))
        assert streamed == Campaign(backend="serial").run(specs)
        assert campaign.peak_buffered <= 1

    def test_stream_preserves_order_and_output(self):
        specs = _specs(5)
        reference = Campaign(backend="serial").run(specs)
        backend = ShardQueueBackend(workers=2, shards=3, inline=True)
        assert list(Campaign(backend=backend).run_stream(specs)) == reference

    def test_duplicates_and_cache_hits_stream(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        specs = _specs(3)
        first = Campaign(backend="serial", cache=cache).run(specs)
        campaign = Campaign(backend="serial", cache=cache)
        again = campaign.run(specs + specs[:1])
        assert again == first + first[:1]
        assert campaign.cached == 3
        assert campaign.executed == 0

    def test_cached_specs_are_read_exactly_once(self, tmp_path):
        specs = _specs(4)
        first = Campaign(backend="serial", cache=TrialCache(str(tmp_path))).run(
            specs
        )
        cache = CountingCache(str(tmp_path))
        campaign = Campaign(backend="serial", cache=cache)
        again = campaign.run(specs + specs[1:3] + specs[:1])
        assert again == first + first[1:3] + first[:1]
        assert sorted(cache.gets) == sorted(spec.key() for spec in specs)
        assert cache.puts == []
        assert (campaign.cached, campaign.executed) == (4, 0)
        assert campaign.peak_buffered == 0  # counts backend results only

    def test_half_filled_cache_reads_each_spec_once_and_writes_each_miss(
        self, tmp_path
    ):
        specs = _specs(6)
        reference = Campaign(backend="serial").run(specs)
        Campaign(backend="serial", cache=TrialCache(str(tmp_path))).run(
            specs[::2]
        )
        cache = CountingCache(str(tmp_path))
        campaign = Campaign(backend="serial", cache=cache)
        assert campaign.run(specs + specs) == reference + reference
        assert sorted(cache.gets) == sorted(spec.key() for spec in specs)
        assert sorted(cache.puts) == sorted(
            spec.key() for spec in specs[1::2]
        )
        assert (campaign.cached, campaign.executed) == (3, 3)

    def test_cache_emptied_mid_stream_still_yields_everything(self, tmp_path):
        # a concurrent `repro cache clear` used to abort a resumed run
        # ("disappeared mid-run"): hits were read again at yield time
        cache = TrialCache(str(tmp_path))
        specs = _specs(4)
        reference = Campaign(backend="serial", cache=cache).run(specs)
        stream = Campaign(backend="serial", cache=cache).run_stream(
            specs + specs[:2]
        )
        head = next(stream)
        assert cache.clear() == 4
        assert [head] + list(stream) == reference + reference[:2]

    @pytest.mark.parametrize("backend", ["serial", "process:2", "shard-inline"])
    def test_resumed_rows_equal_the_cacheless_run(self, tmp_path, backend):
        def make():
            if backend == "shard-inline":
                return ShardQueueBackend(workers=2, shards=3, inline=True)
            return backend

        specs = _specs(5) + _specs(2)
        reference = Campaign(backend="serial").run(specs)
        cache = TrialCache(str(tmp_path))
        Campaign(backend="serial", cache=cache).run(specs[:2])
        half = Campaign(backend=make(), cache=cache)
        assert half.run(specs) == reference
        assert (half.cached, half.executed) == (2, 3)
        full = Campaign(backend=make(), cache=cache)
        assert full.run(specs) == reference
        assert (full.cached, full.executed) == (5, 0)

    def test_ledgered_resume_counts_the_same_draws(self, tmp_path):
        # lossy links, so the trials draw and the ledger has streams
        specs = [_convergence_spec(t, 2400.0, loss=0.02) for t in (0, 1, 2, 0)]
        cacheless = Campaign(backend="serial", rng_ledger=True)
        reference = cacheless.run(specs)
        assert cacheless.rng_draws
        cache = TrialCache(str(tmp_path))
        Campaign(backend="serial", cache=cache, rng_ledger=True).run(specs[:2])
        for cached in (2, 3):
            resumed = Campaign(backend="serial", cache=cache, rng_ledger=True)
            assert resumed.run(specs) == reference
            assert resumed.cached == cached
            assert resumed.rng_draws == cacheless.rng_draws


class TestCampaignBackendParam:
    def test_workers_zero_still_rejected(self):
        with pytest.raises(ValidationError, match="workers must be positive"):
            Campaign(backend="process:0")

    def test_workers_map_to_backends(self):
        serial, sharded = Campaign(), Campaign(backend="process:3")
        assert isinstance(serial.backend, SerialBackend)
        assert isinstance(sharded.backend, ShardQueueBackend)
        assert (serial.backend.workers, sharded.backend.workers) == (1, 3)

    def test_workers_kwarg_is_gone(self):
        # removed, not silently ignored
        with pytest.raises(TypeError):
            Campaign(workers=2)

    def test_cache_kwarg_wires_into_backend(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        campaign = Campaign(backend="serial", cache=cache)
        assert campaign.backend.cache is cache
        assert campaign.cache is cache

    def test_execution_record_only_for_sharded_runs(self):
        serial = Campaign(backend="serial")
        serial.run(_specs(2))
        assert serial.execution_record() is None
        backend = ShardQueueBackend(workers=1, shards=2, inline=True)
        sharded = Campaign(backend=backend)
        sharded.run(_specs(2))
        record = sharded.execution_record()
        assert record["backend"] == "shard"
        assert all(s["attempts"] == 1 for s in record["shards"])


class TestApiBackend:
    def test_workers_and_cache_kwargs_are_gone(self):
        # removed, not silently ignored
        with pytest.raises(TypeError):
            api.run_experiment("figure4a", scale="quick", workers=1)
        with pytest.raises(TypeError):
            api.run_scenario("partition-heal", ("gossip",), cache=True)
        with pytest.raises(TypeError):
            api.hunt("0", 1, workers=1)

    def test_run_scenario_backend_instance(self):
        backend = ShardQueueBackend(workers=1, shards=2, inline=True)
        result = api.run_scenario(
            "partition-heal",
            ("gossip",),
            scale="quick",
            trials=1,
            backend=backend,
        )
        reference = api.run_scenario(
            "partition-heal", ("gossip",), scale="quick", trials=1
        )
        assert result.rows == reference.rows

    def test_custom_spec_rejects_parallel_backend(self):
        spec = api.get_scenario("partition-heal", "quick")
        with pytest.raises(ValidationError, match="serially"):
            api.run_scenario(spec, ("flooding",), backend="shard:4", trials=1)

    def test_custom_spec_rejects_backend_cache(self, tmp_path):
        spec = api.get_scenario("partition-heal", "quick")
        with pytest.raises(ValidationError, match="on-disk cache"):
            api.run_scenario(
                spec,
                ("flooding",),
                backend=f"serial+cache={tmp_path}",
                trials=1,
            )


class TestProvenance:
    PARAMS = {"crash": [0.05], "connectivity": [2], "trials": [1]}

    def _run(self, backend):
        return api.run_experiment(
            "figure4a", scale="quick", params=self.PARAMS, backend=backend
        )

    def test_shard_run_carries_execution_record(self):
        backend = ShardQueueBackend(workers=1, shards=2, inline=True)
        result = self._run(backend)
        assert result.provenance.execution is not None
        assert result.provenance.execution["backend"] == "shard"

    def test_serial_run_has_no_execution_record(self):
        result = self._run("serial")
        assert result.provenance.execution is None
        assert "execution" not in result.provenance.to_json()

    def test_execution_record_round_trips(self):
        backend = ShardQueueBackend(workers=1, shards=2, inline=True)
        provenance = self._run(backend).provenance
        rebuilt = Provenance.from_json(provenance.to_json())
        assert rebuilt.execution == provenance.execution

    def test_shard_vs_serial_diff_clean(self):
        backend = ShardQueueBackend(workers=1, shards=2, inline=True)
        diff = diff_result_sets(
            self._run("serial"), self._run(backend), tolerance=0.0
        )
        assert diff.clean, diff.render()


class TestCli:
    def test_backends_list(self, capsys):
        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out
        assert "process[:N]" in out
        assert "shard[:N[:S]]" in out

    def test_backend_flag(self, capsys):
        code = main(
            [
                "experiments", "run", "figure4a", "--no-store",
                "--scale", "quick", "--backend", "serial", "--no-cache",
                "--sweep", "crash=0.05", "--sweep", "connectivity=2",
                "--sweep", "trials=1",
            ]
        )
        assert code == 0
        assert "backend=serial" in capsys.readouterr().out

    def test_unknown_backend_spec(self, capsys):
        code = main(
            ["experiments", "run", "figure4a", "--no-store",
             "--backend", "threads"]
        )  # fmt: skip
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err
