#!/usr/bin/env python
"""Publish-subscribe over a WAN of LANs — the paper's motivating scenario.

The introduction motivates adaptivity with heterogeneous environments:
"local-area network links are usually more reliable than wide-area
network links".  This example builds on the ``wan-brownout`` scenario
from the registry (``repro.scenario``) — four LAN cliques joined by a
lossy WAN backbone whose backbone browns out mid-run — and shows that

1. the Maximum Reliability Tree routes broadcasts through LAN links
   wherever possible and crosses the WAN the minimum number of times;
2. the adaptive protocol *learns* the tiering from scratch — after a
   learning phase its broadcast plan converges to the optimal one built
   from the true configuration;
3. when the scenario's dynamics timeline degrades the WAN tier, the
   same knowledge activity notices and re-tracks the change.

Run:  python examples/pubsub_wan.py
"""

from repro import (
    AdaptiveBroadcast,
    AdaptiveParameters,
    BroadcastMonitor,
    DynamicsDriver,
    KnowledgeParameters,
    Network,
    RandomSource,
    Simulator,
    build_scenario,
    maximum_reliability_tree,
    optimize,
    verify_adaptiveness,
)
from repro.experiments.runner import current_scale, scaled

CLUSTERS, CLUSTER_SIZE = 4, 5


def deploy(spec, graph, config, seed):
    """Adaptive stack at the scenario's reliability target ``K``."""
    sim = Simulator()
    network = Network(sim, config, RandomSource("pubsub-wan", seed))
    monitor = BroadcastMonitor(graph.n)
    params = AdaptiveParameters(
        knowledge=KnowledgeParameters(delta=1.0, intervals=100, tick=1.0)
    )
    nodes = [
        AdaptiveBroadcast(p, network, monitor, spec.k_target, params)
        for p in graph.processes
    ]
    return network, monitor, nodes


def main():
    # the registry scenario provides the topology, the LAN/WAN base
    # configuration *and* the brownout timeline as one declarative spec
    scale = scaled(current_scale("quick"), n=CLUSTERS * CLUSTER_SIZE)
    spec = build_scenario("wan-brownout", scale)
    graph, tiers = spec.topology.build_with_tiers()
    lan_links, wan_links = list(tiers["lan"]), list(tiers["wan"])
    config = spec.environment.base_configuration(graph, tiers)
    lan_loss = spec.environment.loss
    wan_loss = spec.environment.wan_loss
    print(
        f"scenario '{spec.name}': {CLUSTERS} LAN cliques x "
        f"{CLUSTER_SIZE} processes, "
        f"{len(lan_links)} LAN links (L={lan_loss}), "
        f"{len(wan_links)} WAN links (L={wan_loss})\n"
    )

    # 1. the optimal plan respects the tiering
    tree = maximum_reliability_tree(graph, config, root=0)
    wan_set = set(wan_links)
    wan_crossings = sum(1 for link in tree.links() if link in wan_set)
    plan = optimize(tree, spec.k_target, config)
    wan_copies = sum(
        m for j, m in plan.counts.items() if tree.link_to(j) in wan_set
    )
    print("optimal MRT plan:")
    print(f"  WAN links used: {wan_crossings} (minimum possible: {CLUSTERS - 1})")
    print(
        f"  total messages: {plan.total_messages} "
        f"({wan_copies} across the WAN — the lossy tier gets the "
        f"redundancy, the LANs get single copies)"
    )
    assert wan_crossings == CLUSTERS - 1

    # 2. the adaptive protocol learns the tiering from scratch
    network, monitor, nodes = deploy(spec, graph, config, "learn")
    network.start()
    print("\nlearning the environment (heartbeats + Bayesian inference)...")
    for checkpoint in (25, 100, 400, 1200):
        network.sim.run(until=float(checkpoint))
        view = nodes[0].view
        lan_est = view.loss_probability(lan_links[0]) if view.knows_link(lan_links[0]) else float("nan")
        wan_est = view.loss_probability(wan_links[0]) if view.knows_link(wan_links[0]) else float("nan")
        print(
            f"  t={checkpoint:5d}: known links "
            f"{len(view.known_links):3d}/{graph.link_count}, "
            f"LAN estimate {lan_est:.3f} (true {lan_loss}), "
            f"WAN estimate {wan_est:.3f} (true {wan_loss})"
        )

    # after learning, the adaptive plan matches the optimal plan
    result = verify_adaptiveness(
        graph, config, nodes[0].view, root=0, k_target=spec.k_target,
        count_tolerance=3,
    )
    print("\nadaptiveness check (Definition 2):")
    print(f"  optimal plan:  {result['optimal_messages']} messages")
    print(f"  adaptive plan: {result['adaptive_messages']} messages")
    gap = abs(result["adaptive_messages"] - result["optimal_messages"])
    print(
        f"  within {gap} message(s) of optimal"
        + (
            " (identical tree)"
            if result["same_tree"]
            else " (equally-reliable LAN links tie-break differently under "
            "estimate noise — the message cost is what Definition 2 compares)"
        )
    )
    assert gap <= 3, "adaptive plan should be within a few messages of optimal"

    # a broadcast through the learned plan reaches everyone
    mid = nodes[0].broadcast({"topic": "market-data", "seq": 1})
    network.sim.run(until=network.sim.now + 10.0)
    print(
        f"\npublish through the learned tree: delivered to "
        f"{monitor.delivery_count(mid)}/{graph.n} subscribers"
    )

    # 3. the scenario's dynamics timeline: the WAN browns out mid-run,
    # and the knowledge activity tracks the change on a fresh deployment
    network, monitor, nodes = deploy(spec, graph, config, "brownout")
    driver = DynamicsDriver(network, spec.timeline, name=spec.name, tiers=tiers)
    driver.install()
    network.start()
    probe = wan_links[0]
    print(f"\nreplaying the {spec.name} timeline (WAN degrades, then restores):")
    for checkpoint in (140, 250, spec.duration):
        network.sim.run(until=float(checkpoint))
        true_now = network.config.loss_probability(probe)
        est = nodes[0].view.loss_probability(probe)
        print(
            f"  t={int(checkpoint):5d}: true WAN loss {true_now:.2f}, "
            f"node-0 estimate {est:.3f}"
        )


if __name__ == "__main__":
    main()
