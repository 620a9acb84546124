#!/usr/bin/env python
"""Figure 1's two-path model: closed form, simulation, and the break-even.

Reproduces the paper's motivating computation (Appendix A): two nodes,
two independent paths with losses L and alpha*L.  Prints the k1/k0 ratio
table (Figure 1), validates one point by Monte-Carlo simulation, and
shows the message budgets both strategies need for a target reliability.

Run:  python examples/two_paths_analysis.py
"""

import repro.api as api
from repro import RandomSource
from repro.analysis.two_paths import (
    adaptive_reach,
    gossip_reach,
    message_ratio,
    required_messages,
    simulate_two_paths,
)
from repro.util.tables import line_plot


def main():
    table = api.run_experiment("figure1", backend="serial")
    print(table.render())
    print()
    print(line_plot(table, height=12))

    print("\npaper anchor: alpha=10, L=1e-4 ->", f"{message_ratio(1e-4, 10):.3f}")

    # Monte-Carlo cross-check of the closed forms
    loss, alpha, k = 0.05, 4.0, 6
    sim_gossip = simulate_two_paths(
        loss, alpha, k, "gossip", RandomSource("example"), trials=40_000
    )
    sim_adaptive = simulate_two_paths(
        loss, alpha, k, "adaptive", RandomSource("example"), trials=40_000
    )
    print(f"\nMonte-Carlo check (L={loss}, alpha={alpha}, k={k}):")
    print(
        f"  gossip:   analytic {gossip_reach(loss, alpha, k):.5f}  "
        f"simulated {sim_gossip:.5f}"
    )
    print(
        f"  adaptive: analytic {adaptive_reach(loss, k):.5f}  "
        f"simulated {sim_adaptive:.5f}"
    )

    # message budgets for a fixed reliability target
    print("\nmessages needed for K=0.9999:")
    for loss in (0.01, 0.05, 0.2):
        k1 = required_messages(loss, 0.9999)
        print(
            f"  L={loss:4}: adaptive needs {k1} messages on the best path; "
            f"gossip pays ~{k1 / message_ratio(loss, 4.0):.1f} "
            f"for the same reliability at alpha=4"
        )


if __name__ == "__main__":
    main()
