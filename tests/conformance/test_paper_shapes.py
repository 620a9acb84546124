"""The paper's curve shapes, as executable checks at the quick preset.

Each test regenerates one figure (or one design-choice ablation /
Section 7 extension) and asserts the qualitative shape the paper
reports, not absolute numbers — at n=16, K=0.95 the ratios are smaller
than the paper's n=100, K=0.9999 ones, but orderings and growth hold:

* Figure 4 — the calibrated reference gossip never beats the optimal
  algorithm (ratio >= 1) and the ratio grows with connectivity.
* Figure 5 — the zero-probability curve (topology plus trivial
  inference) converges first.
* Figure 6 — the ring's convergence effort grows with n (information
  crosses ~n/2 hops) and faster than the random tree's.
* Ablations — counting ACKs roughly doubles the reference algorithm's
  cost; a looser convergence criterion never costs more effort; the
  paper's i.i.d. crash model lets a process estimate its own P well.
* Extensions — heterogeneous loss does not shrink the adaptive gain;
  refined belief resolution beats the coarse estimator within its
  interval budget; piggy-backed knowledge does not hurt convergence.
"""

from math import inf

import repro.api as api
from repro.analysis.convergence import ConvergenceCriterion, estimate_errors
from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
from repro.core.bayesian import BeliefEstimator
from repro.core.knowledge import KnowledgeParameters
from repro.core.refinement import AdaptiveResolutionEstimator
from repro.experiments.campaign import Campaign
from repro.experiments.figure4 import figure4_aggregate, figure4_build
from repro.experiments.figure5 import convergence_messages_per_link
from repro.experiments.runner import QUICK, make_network, scaled
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import NetworkOptions
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.util.rng import RandomSource

#: Below full scale the figure sweeps stop at connectivity 16 (Figure 4)
#: and 12 (Figure 5), and Figure 5 draws two curves per panel.
FIGURE4_SCALE = scaled(
    QUICK, connectivities=tuple(k for k in QUICK.connectivities if k <= 16)
)
FIGURE5_SCALE = scaled(
    QUICK, connectivities=tuple(k for k in QUICK.connectivities if k <= 12)
)
FIGURE5_VALUES = (0.0, 0.03)

ABLATION_SCALE = scaled(
    QUICK, n=16, trials=6, calibration_trials=20, k_target=0.95
)
EXTENSION_SCALE = scaled(
    QUICK, n=20, trials=10, calibration_trials=30, k_target=0.95
)


def run(name, scale, **params):
    return api.run_experiment(name, scale=scale, params=params, backend="serial")


def curves(result):
    """Each curve's points, by column name (None gaps dropped)."""
    return {
        name: [y for y in result.column(name) if y is not None]
        for name in result.columns[1:]
    }


# -- Figures 4-6 ----------------------------------------------------------------------


def test_figure4a_crash_variant():
    for ys in curves(run("figure4a", FIGURE4_SCALE)).values():
        assert all(y > 0 for y in ys)
        # the reference algorithm never beats the optimal one
        assert max(ys) >= 1.0


def test_figure4b_loss_variant():
    # growth with connectivity: the densest point should dominate the
    # sparsest for every curve (the paper's headline trend)
    for ys in curves(run("figure4b", FIGURE4_SCALE)).values():
        if len(ys) >= 2:
            assert ys[-1] >= ys[0]


def test_figure5a_crash_variant():
    result = run("figure5a", FIGURE5_SCALE, crash=FIGURE5_VALUES, trials=2)
    for name in result.columns[1:]:
        assert all(y is not None and y > 0 for y in result.column(name))
    zero, worst = result.column("P=0"), result.column(result.columns[-1])
    assert min(zero) <= min(worst)


def test_figure5b_loss_variant():
    result = run("figure5b", FIGURE5_SCALE, loss=FIGURE5_VALUES, trials=2)
    zero, worst = result.column("L=0"), result.column(result.columns[-1])
    assert min(zero) <= min(worst)


def test_figure6_scalability():
    result = run("figure6", QUICK, trials=2)
    ring, tree = result.column("ring"), result.column("tree")
    # ring effort grows from the smallest to the largest system
    assert ring[-1] > ring[0]
    # at the largest size, the ring costs more than the tree
    assert ring[-1] > tree[-1]
    # the tree curve grows much slower than the ring curve
    ring_growth = ring[-1] / ring[0]
    tree_growth = tree[-1] / max(tree[0], 1e-9)
    assert tree_growth < ring_growth


# -- design-choice ablations ----------------------------------------------------------


def test_ack_accounting_ablation():
    """Counting ACKs roughly doubles the reference algorithm's cost."""
    scale = scaled(ABLATION_SCALE, connectivities=(4,))

    def ratio(count_acks):
        campaign = Campaign()
        phase1, specs = figure4_build(
            "loss", scale, campaign, values=(0.03,), count_acks=count_acks
        )
        result = figure4_aggregate(
            "loss", scale, phase1, campaign.run(specs), values=(0.03,)
        )
        return result.column("L=0.03")[0]

    assert ratio(count_acks=True) > ratio(count_acks=False) * 1.5


def test_interval_count_ablation():
    """Convergence effort vs the Bayesian resolution U."""
    graph = k_regular(12, 4)
    config = Configuration.uniform(graph, loss=0.03)
    efforts = [
        convergence_messages_per_link(
            graph,
            config,
            ("ablate-u", intervals),
            deadline=4000.0,
            params=AdaptiveParameters(
                knowledge=KnowledgeParameters(delta=1.0, intervals=intervals)
            ),
            criterion=ConvergenceCriterion(point_tolerance=0.025),
            strict=False,
        )
        for intervals in (20, 50, 100)
    ]
    assert any(effort != inf for effort in efforts)


def test_convergence_tolerance_ablation():
    """The absolute Figure 5 numbers depend on the (unspecified) criterion."""
    graph = k_regular(12, 4)
    config = Configuration.uniform(graph, loss=0.03)
    efforts = [
        convergence_messages_per_link(
            graph,
            config,
            ("ablate-tol", tol),
            deadline=6000.0,
            criterion=ConvergenceCriterion(point_tolerance=tol),
            strict=False,
        )
        for tol in (0.01, 0.02, 0.04)
    ]
    finite = [effort for effort in efforts if effort != inf]
    # looser tolerance -> no more effort
    assert finite == sorted(finite, reverse=True)


def test_iid_crash_self_estimate():
    """Under the paper's i.i.d. step crashes a process estimates its P well."""
    graph = k_regular(12, 4)
    config = Configuration.uniform(graph, crash=0.03)
    network = make_network(
        config,
        ("ablate-crash", "iid"),
        options=NetworkOptions(crash_model="iid"),
    )
    monitor = BroadcastMonitor(graph.n)
    params = AdaptiveParameters(
        knowledge=KnowledgeParameters(delta=1.0, intervals=100)
    )
    nodes = [
        AdaptiveBroadcast(p, network, monitor, 0.95, params)
        for p in graph.processes
    ]
    network.start()
    network.sim.run(until=600.0)
    # mean absolute error of self estimates vs P
    iid_err = sum(
        abs(n.view.crash_probability(n.pid) - 0.03) for n in nodes
    ) / len(nodes)
    assert iid_err < 0.05


# -- Section 7 extensions -------------------------------------------------------------


def test_heterogeneous_environments():
    result = run("heterogeneous", EXTENSION_SCALE, loss=0.05)
    # at the densest measured connectivity the adaptive gain should be at
    # least as large in the heterogeneous environment
    densest = result.rows[-1]
    assert (
        densest.get("ratio (heterogeneous L)")
        >= densest.get("ratio (uniform L)") * 0.9
    )


def test_dynamic_resolution():
    """Refined estimator precision vs fixed estimators, same data."""
    true_p = 0.03
    observations = RandomSource("bench-refine").bernoulli_array(true_p, 3000)
    coarse = BeliefEstimator(10)
    refined = AdaptiveResolutionEstimator(initial_intervals=8, max_intervals=64)
    for failed in observations:
        for est in (coarse, refined):
            if failed:
                est.decrease_reliability(1)
            else:
                est.increase_reliability(1)
    # refinement beats the coarse estimator and stays small
    assert (
        abs(refined.point_estimate() - true_p)
        <= abs(coarse.point_estimate() - true_p) + 1e-9
    )
    assert refined.intervals <= 64


def test_piggybacking_convergence():
    """Heartbeats+piggyback vs heartbeats alone, same horizon."""
    graph = k_regular(16, 4)
    config = Configuration.uniform(graph, loss=0.03)

    def link_mae(piggyback):
        network = make_network(config, ("piggy", piggyback))
        monitor = BroadcastMonitor(graph.n)
        params = AdaptiveParameters(
            knowledge=KnowledgeParameters(delta=1.0, intervals=100),
            piggyback_knowledge=piggyback,
        )
        nodes = [
            AdaptiveBroadcast(p, network, monitor, 0.95, params)
            for p in graph.processes
        ]
        network.start()
        # periodic application traffic exercises the piggyback path
        for t in range(20, 220, 20):
            network.sim.schedule(float(t), lambda: nodes[0].broadcast("tick"))
        network.sim.run(until=250.0)
        return estimate_errors(nodes[4].view, config)["link_mae"]

    plain, piggy = link_mae(False), link_mae(True)
    # piggybacking adds information; it must not hurt convergence
    assert piggy <= plain * 1.25
