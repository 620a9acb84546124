#!/usr/bin/env python
"""Watch the adaptive protocol's knowledge converge, live.

Runs the knowledge activity (Algorithm 4) on a lossy ring and samples the
estimate errors over time: topology discovery completes once heartbeats
have relayed knowledge to the farthest process, while the Bayesian loss
estimates tighten like 1/sqrt(observations).  Prints an error trace, a terminal sparkline,
and the convergence time under two criteria (posterior-mean tolerance and
the paper's "right probability interval" MAP criterion).

Run:  python examples/convergence_monitor.py
"""

from repro import (
    AdaptiveBroadcast,
    AdaptiveParameters,
    BroadcastMonitor,
    Configuration,
    ConvergenceCriterion,
    KnowledgeParameters,
    Network,
    RandomSource,
    Simulator,
    estimate_errors,
    ring,
    views_converged,
)
from repro.analysis.convergence import convergence_profile
from repro.util.tables import render_table, sparkline

N, LOSS = 16, 0.05
SAMPLE_EVERY = 25.0
HORIZON = 2500.0


def main():
    graph = ring(N)
    config = Configuration.uniform(graph, crash=0.0, loss=LOSS)
    sim = Simulator()
    network = Network(sim, config, RandomSource("convergence-monitor"))
    monitor = BroadcastMonitor(graph.n)
    params = AdaptiveParameters(
        knowledge=KnowledgeParameters(delta=1.0, intervals=100, tick=1.0)
    )
    nodes = [
        AdaptiveBroadcast(p, network, monitor, 0.99, params)
        for p in graph.processes
    ]
    network.start()
    views = [node.view for node in nodes]

    point_criterion = ConvergenceCriterion(mode="point", point_tolerance=0.02)
    map_criterion = ConvergenceCriterion(mode="map", tolerance_intervals=1)

    samples = []
    converged = {"point": None, "map": None}
    t = 0.0
    while t < HORIZON:
        t += SAMPLE_EVERY
        sim.run(until=t)
        errors = estimate_errors(views[0], config)
        samples.append((t, errors["link_mae"], errors["known_links"]))
        if converged["point"] is None and views_converged(views, config, point_criterion):
            converged["point"] = t
        if converged["map"] is None and views_converged(views, config, map_criterion):
            converged["map"] = t
        if all(v is not None for v in converged.values()):
            break

    rows = [
        [f"{t:.0f}", f"{mae:.4f}", f"{int(known)}/{graph.link_count}"]
        for t, mae, known in samples[:: max(1, len(samples) // 12)]
    ]
    print(
        render_table(
            ["time", "link estimate MAE (view of p0)", "links known"],
            rows,
            title=f"knowledge convergence on a {N}-ring, L={LOSS}",
        )
    )
    print("\nlink MAE over time:", sparkline([s[1] for s in samples]))
    profile = convergence_profile(
        [(t, mae) for t, mae, _ in samples], threshold=0.02
    )
    print(f"p0's own estimates within 0.02 from: t = {profile:.0f}")
    print(
        f"ALL processes converged (point, tol 0.02): "
        f"t = {converged['point'] or float('nan')}"
    )
    print(
        f"ALL processes converged (MAP interval ±1): "
        f"t = {converged['map'] or float('nan')}"
    )
    print(
        "\nmessages per link so far: "
        f"{network.stats.sent() / graph.link_count:.0f} "
        "(the y-axis of the paper's Figures 5/6)"
    )


if __name__ == "__main__":
    main()
