"""Unit tests for convergence criteria and estimate-error metrics."""

import math

import pytest

from repro.analysis.convergence import (
    ConvergenceCriterion,
    convergence_profile,
    estimate_errors,
    learnable_link_probability,
    view_converged,
    views_converged,
)
from repro.core.knowledge import KnowledgeParameters
from repro.core.viewtable import VectorView
from repro.topology.configuration import Configuration
from repro.topology.generators import line, ring
from repro.types import Link

PARAMS = KnowledgeParameters(delta=1.0, intervals=100, tick=1.0)


def trained_vector_view(graph, config, observations=4000):
    """A VectorView hand-fed with perfect observations (no simulation)."""
    view = VectorView(0, graph, PARAMS)
    view.link_known[:] = True
    view.link_d[:] = 1.0
    for idx, link in enumerate(graph.links):
        target = learnable_link_probability(config, link)
        failures = int(round(target * observations))
        row = graph.n + idx  # link rows follow the process rows
        view._observe(row, view._log_mid, failures)
        view._observe(row, view._log_one_minus_mid, observations - failures)
    for p in graph.processes:
        target = config.crash_probability(p)
        failures = int(round(target * observations))
        view._observe(p, view._log_mid, failures)
        view._observe(p, view._log_one_minus_mid, observations - failures)
    return view


class TestLearnableLinkProbability:
    def test_reliable_processes_gives_loss(self):
        g = line(2)
        c = Configuration.uniform(g, crash=0.0, loss=0.07)
        assert learnable_link_probability(c, Link.of(0, 1)) == pytest.approx(0.07)

    def test_crashes_fold_in(self):
        g = line(2)
        c = Configuration.uniform(g, crash=0.1, loss=0.0)
        assert learnable_link_probability(c, Link.of(0, 1)) == pytest.approx(
            1 - 0.9 * 0.9
        )


class TestCriterionValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(mode="vibes")


class TestViewConverged:
    def test_fresh_view_not_converged(self):
        g = ring(4)
        c = Configuration.uniform(g, loss=0.05)
        view = VectorView(0, g, PARAMS)
        assert not view_converged(view, c)

    def test_trained_view_converges_point_mode(self):
        g = ring(4)
        c = Configuration.uniform(g, loss=0.05)
        view = trained_vector_view(g, c)
        assert view_converged(view, c, ConvergenceCriterion(mode="point"))

    def test_trained_view_converges_map_mode(self):
        g = ring(4)
        c = Configuration.uniform(g, loss=0.05)
        view = trained_vector_view(g, c)
        assert view_converged(view, c, ConvergenceCriterion(mode="map"))

    def test_wrong_estimates_fail(self):
        g = ring(4)
        c_true = Configuration.uniform(g, loss=0.30)
        c_wrong = Configuration.uniform(g, loss=0.05)
        view = trained_vector_view(g, c_wrong)
        assert not view_converged(view, c_true)

    def test_topology_requirement(self):
        g = ring(4)
        c = Configuration.reliable(g)
        view = VectorView(0, g, PARAMS)
        # make all estimates perfect, but topology incomplete
        for _ in range(2000):
            view.record_up_tick()
        criterion = ConvergenceCriterion(require_full_topology=True)
        assert not view_converged(view, c, criterion)

    def test_partial_checks(self):
        g = ring(4)
        c = Configuration.uniform(g, crash=0.4)  # far from uniform prior
        view = VectorView(0, g, PARAMS)
        view.link_known[:] = True
        # only links checked; link beliefs are uniform -> est 0.5 vs target
        crit_links_only = ConvergenceCriterion(
            check_processes=False, check_links=True, point_tolerance=0.6
        )
        assert view_converged(view, c, crit_links_only)


class TestViewsConverged:
    def test_all_must_converge(self):
        g = ring(4)
        c = Configuration.uniform(g, loss=0.05)
        good = trained_vector_view(g, c)
        fresh = VectorView(1, g, PARAMS)
        assert views_converged([good], c)
        assert not views_converged([good, fresh], c)


class TestEstimateErrors:
    def test_fresh_view_errors(self):
        g = ring(4)
        c = Configuration.reliable(g)
        view = VectorView(0, g, PARAMS)
        errors = estimate_errors(view, c)
        assert errors["process_mae"] == pytest.approx(0.5)  # uniform prior
        assert errors["known_links"] == 2.0
        # unknown links charged 1.0 each: (2*0.5 + 2*1.0)/4
        assert errors["link_mae"] == pytest.approx((2 * 0.5 + 2 * 1.0) / 4)

    def test_trained_view_errors_small(self):
        g = ring(4)
        c = Configuration.uniform(g, loss=0.05)
        view = trained_vector_view(g, c)
        errors = estimate_errors(view, c)
        assert errors["process_mae"] < 0.02
        assert errors["link_mae"] < 0.02


class TestConvergenceProfile:
    def test_first_stable_crossing(self):
        trace = [(1.0, 0.5), (2.0, 0.05), (3.0, 0.2), (4.0, 0.04), (5.0, 0.03)]
        assert convergence_profile(trace, threshold=0.1) == 4.0

    def test_never_converges(self):
        assert convergence_profile([(1.0, 0.9)], threshold=0.1) == math.inf

    def test_immediate(self):
        assert convergence_profile([(1.0, 0.01)], threshold=0.1) == 1.0
