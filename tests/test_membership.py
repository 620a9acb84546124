"""Unit tests for the peer-sampling membership layer.

Covers the :class:`~repro.membership.sampler.PeerSampler` policy
families (selection, propagation), aging/expiry, the merge filter that
keeps views inside the holder's link-neighbourhood, the standalone
:class:`~repro.membership.service.PeerSamplingService`, and the
:class:`~repro.membership.quality.ViewQualityMonitor` metrics.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.membership.quality import ViewQualityMonitor
from repro.membership.sampler import (
    PROPAGATION_POLICIES,
    SELECTION_POLICIES,
    MembershipParams,
    PeerSampler,
    ViewExchange,
)
from repro.membership.service import PeerSamplingService
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.util.rng import RandomSource
from repro.util.stats import percentile


def _sampler(pid=0, neighbors=range(1, 11), seed="t", **overrides):
    params = MembershipParams(**{"view_size": 4, **overrides})
    return PeerSampler(pid, neighbors, params, RandomSource("sampler", seed))


class TestMembershipParams:
    def test_defaults_are_valid(self):
        params = MembershipParams()
        assert params.view_size == 8
        assert params.view_selection in SELECTION_POLICIES
        assert params.propagation in PROPAGATION_POLICIES

    @pytest.mark.parametrize(
        "overrides",
        [
            {"view_size": 0},
            {"exchange_period": 0.0},
            {"max_age": 0},
            {"view_selection": "youngest"},
            {"peer_selection": "oldest"},
            {"propagation": "pushpullpush"},
            {"exchange_period": float("nan")},
            {"exchange_period": float("inf")},
            {"view_size": 2.5},
            {"view_size": True},
            {"max_age": 3.0},
        ],
    )
    def test_invalid_knobs_rejected(self, overrides):
        with pytest.raises(ValidationError, match=next(iter(overrides))):
            MembershipParams(**overrides)

    def test_policy_triple(self):
        params = MembershipParams(
            view_selection="tail", peer_selection="rand", propagation="pull"
        )
        assert params.policy_triple == "tail:rand:pull"


class TestPeerSampler:
    def test_bootstrap_takes_first_sorted_neighbors(self):
        sampler = _sampler()
        assert sampler.view_peers() == (1, 2, 3, 4)
        assert all(sampler.age_of(q) == 0 for q in sampler.view_peers())

    def test_explicit_contacts_filtered_to_neighbors(self):
        params = MembershipParams(view_size=4)
        sampler = PeerSampler(
            0,
            range(1, 11),
            params,
            RandomSource("contacts"),
            contacts=[3, 7, 99],  # 99 is not a neighbour
        )
        assert sampler.view_peers() == (3, 7)

    def test_select_peer_head_is_youngest_tail_is_oldest(self):
        sampler = _sampler(peer_selection="head")
        sampler._view = {1: 5, 2: 0, 3: 9}
        assert sampler.select_peer() == 2
        sampler.params = MembershipParams(view_size=4, peer_selection="tail")
        assert sampler.select_peer() == 3

    def test_select_peer_rand_is_seed_deterministic(self):
        picks_a = []
        picks_b = []
        for picks, seed in ((picks_a, "same"), (picks_b, "same")):
            sampler = _sampler(seed=seed, peer_selection="rand")
            for _ in range(10):
                picks.append(sampler.select_peer())
        assert picks_a == picks_b

    @pytest.mark.parametrize(
        "propagation,phase,carries_buffer",
        [
            ("push", "push", True),
            ("pull", "pull-request", False),
            ("pushpull", "pushpull", True),
        ],
    )
    def test_begin_exchange_phases(self, propagation, phase, carries_buffer):
        sampler = _sampler(propagation=propagation)
        sent = []
        peer = sampler.begin_exchange(lambda q, m: sent.append((q, m)))
        assert peer in (1, 2, 3, 4)
        [(target, message)] = sent
        assert target == peer
        assert message.phase == phase
        if carries_buffer:
            # our own fresh descriptor leads the shipped buffer
            assert message.entries[0] == (0, 0)
        else:
            assert message.entries == ()
        assert sampler.exchanges_started == 1

    def test_aging_and_expiry_rebootstraps(self):
        sampler = _sampler(max_age=2)
        # three unanswered exchange rounds age every entry past max_age
        for _ in range(2):
            sampler.begin_exchange(lambda q, m: None)
        assert all(sampler.age_of(q) > 0 for q in sampler.view_peers())
        peer = sampler.begin_exchange(lambda q, m: None)
        # the view emptied and was re-seeded from the contact nodes
        assert peer in (1, 2, 3, 4)
        assert sampler.view_peers() == (1, 2, 3, 4)

    def test_isolated_process_has_no_partner(self):
        sampler = _sampler(neighbors=())
        assert sampler.begin_exchange(lambda q, m: None) is None

    def test_handle_pushpull_replies_with_premerge_snapshot(self):
        sampler = _sampler()
        sampler._view = {1: 3, 2: 3, 3: 3, 4: 3}  # aged: newcomers win the cut
        sent = []
        handled = sampler.handle(
            5,
            ViewExchange("pushpull", ((5, 0), (6, 0))),
            lambda q, m: sent.append((q, m)),
        )
        assert handled
        [(target, reply)] = sent
        assert target == 5 and reply.phase == "reply"
        # the reply was snapshotted before merging: the sender's
        # descriptors must not be echoed straight back
        replied = {q for q, _ in reply.entries}
        assert 5 not in replied and 6 not in replied
        # ...but the merge itself happened
        assert 5 in sampler.view_peers() or 6 in sampler.view_peers()
        assert sampler.exchanges_answered == 1

    def test_handle_pull_request_replies_without_merging(self):
        sampler = _sampler()
        before = sampler.view_entries()
        sent = []
        sampler.handle(
            9, ViewExchange("pull-request"), lambda q, m: sent.append((q, m))
        )
        assert sampler.view_entries() == before
        assert sent[0][1].phase == "reply"

    def test_handle_rejects_foreign_payloads(self):
        sampler = _sampler()
        assert not sampler.handle(1, {"not": "membership"}, lambda q, m: None)

    def test_merge_filters_self_and_non_neighbors(self):
        sampler = _sampler()
        sampler._view = {}
        sampler.handle(
            1,
            ViewExchange("push", ((0, 0), (99, 0), (7, 1))),
            lambda q, m: None,
        )
        peers = sampler.view_peers()
        assert 0 not in peers and 99 not in peers
        assert sampler.age_of(7) == 1

    def test_merge_keeps_minimum_age(self):
        sampler = _sampler()
        sampler._view = {1: 5}
        sampler.handle(2, ViewExchange("push", ((1, 2),)), lambda q, m: None)
        assert sampler.age_of(1) == 2
        sampler.handle(2, ViewExchange("push", ((1, 4),)), lambda q, m: None)
        assert sampler.age_of(1) == 2  # older descriptor never wins

    def test_truncation_head_keeps_youngest(self):
        sampler = _sampler(view_size=2, view_selection="head")
        sampler._view = {}
        sampler.handle(
            1,
            ViewExchange("push", ((3, 0), (5, 2), (7, 4))),
            lambda q, m: None,
        )
        assert sampler.view_entries() == ((3, 0), (5, 2))

    def test_truncation_tail_keeps_oldest(self):
        sampler = _sampler(view_size=2, view_selection="tail")
        sampler._view = {}
        sampler.handle(
            1,
            ViewExchange("push", ((3, 0), (5, 2), (7, 4))),
            lambda q, m: None,
        )
        assert sampler.view_entries() == ((5, 2), (7, 4))

    def test_view_never_exceeds_view_size(self):
        sampler = _sampler(view_size=3, view_selection="rand")
        for round_ in range(5):
            entries = tuple((q, round_) for q in range(1, 11))
            sampler.handle(1, ViewExchange("push", entries), lambda q, m: None)
            assert len(sampler) <= 3

    def test_same_seed_same_history_is_bit_identical(self):
        def evolve(seed):
            sampler = _sampler(
                seed=seed, view_selection="rand", peer_selection="rand"
            )
            history = []
            for round_ in range(6):
                sampler.begin_exchange(lambda q, m: None)
                sampler.handle(
                    1,
                    ViewExchange("push", tuple((q, round_) for q in range(2, 9))),
                    lambda q, m: None,
                )
                history.append(sampler.view_entries())
            return history

        assert evolve("alpha") == evolve("alpha")
        assert evolve("alpha") != evolve("beta")


def _overlay(n=16, degree=4, until=200.0, **param_overrides):
    graph = k_regular(n, degree)
    config = Configuration.uniform(graph, crash=0.0, loss=0.0)
    sim = Simulator()
    root = RandomSource("membership-service-test")
    network = Network(sim, config, root.child("net"))
    params = MembershipParams(
        **{"view_size": 4, "exchange_period": 10.0, **param_overrides}
    )
    services = [
        PeerSamplingService(p, network, params, rng=root)
        for p in graph.processes
    ]
    return sim, network, services, until


class TestPeerSamplingService:
    def test_views_stay_bounded_neighbor_only_and_active(self):
        sim, network, services, until = _overlay()
        network.start()
        sim.run(until=until)
        for service in services:
            assert 0 < len(service.sampler) <= service.params.view_size
            assert set(service.view) <= set(service.neighbors)
            assert service.sampler.exchanges_started > 0
            assert service.sampler.merges > 0

    def test_membership_traffic_is_deterministic(self):
        def fingerprint():
            sim, network, services, until = _overlay()
            network.start()
            sim.run(until=until)
            return (
                sim.executed_events,
                network.stats.snapshot(),
                tuple(s.sampler.view_entries() for s in services),
            )

        assert fingerprint() == fingerprint()


class TestViewQualityMonitor:
    def test_percentile_nearest_rank(self):
        assert percentile([1, 2, 3, 4], 0.99) == 4.0
        assert percentile([5], 0.5) == 5.0
        # a poll over no samplers reports an in-degree p99 of 0.0
        sim, network, _, until = _overlay()
        monitor = ViewQualityMonitor(sim, network, {}, period=10.0)
        network.start()
        sim.run(until=until)
        assert monitor.snapshots
        assert {s["indegree_p99"] for s in monitor.snapshots} == {0.0}

    def test_summary_over_static_overlay(self):
        sim, network, services, until = _overlay()
        monitor = ViewQualityMonitor(
            sim,
            network,
            {s.pid: s.sampler for s in services},
            period=10.0,
        )
        network.start()
        sim.run(until=until)
        summary = monitor.summary()
        assert summary["view_polls"] == pytest.approx(until / 10.0)
        assert summary["view_indegree_mean"] > 0.0
        assert (
            summary["view_indegree_mean"]
            <= summary["view_indegree_p99"]
            <= summary["view_indegree_max"]
        )
        # nobody crashes or leaves, so no entry ever points at a dead peer
        assert summary["view_staleness"] == 0.0
        assert 0.0 <= summary["view_clustering"] <= 1.0
        # no Heal events -> recovery is the n/a sentinel
        assert summary["view_partition_recovery"] == -1.0

    def test_monitor_is_metrics_transparent(self):
        def run(with_monitor):
            sim, network, services, until = _overlay()
            if with_monitor:
                ViewQualityMonitor(
                    sim, network, {s.pid: s.sampler for s in services}
                )
            network.start()
            sim.run(until=until)
            return (
                network.stats.snapshot(),
                tuple(s.sampler.view_entries() for s in services),
            )

        assert run(with_monitor=False) == run(with_monitor=True)

    def test_rejects_non_positive_period(self):
        sim, network, services, _ = _overlay()
        with pytest.raises(ValueError):
            ViewQualityMonitor(
                sim, network, {s.pid: s.sampler for s in services}, period=0.0
            )
