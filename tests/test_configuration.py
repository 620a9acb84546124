"""Unit tests for failure configurations."""

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.topology.configuration import Configuration
from repro.topology.generators import ring
from repro.topology.graph import Graph
from repro.types import Link
from repro.util.rng import RandomSource


class TestConstruction:
    def test_uniform(self, small_graph):
        c = Configuration.uniform(small_graph, crash=0.1, loss=0.2)
        assert c.crash_probability(3) == 0.1
        assert c.loss_probability(Link.of(0, 1)) == 0.2

    def test_reliable(self, small_graph):
        c = Configuration.reliable(small_graph)
        assert all(c.crash_probability(p) == 0.0 for p in small_graph.processes)
        assert all(c.loss_probability(link) == 0.0 for link in small_graph.links)

    def test_explicit_maps(self, small_graph):
        c = Configuration(
            small_graph,
            crash={2: 0.5},
            loss={(0, 1): 0.3},
            default_crash=0.01,
            default_loss=0.02,
        )
        assert c.crash_probability(2) == 0.5
        assert c.crash_probability(0) == 0.01
        assert c.loss_probability(Link.of(1, 0)) == 0.3
        assert c.loss_probability(Link.of(1, 2)) == 0.02

    def test_unknown_process_key(self, small_graph):
        with pytest.raises(ConfigurationError):
            Configuration(small_graph, crash={99: 0.1})

    def test_unknown_link_key(self, small_graph):
        with pytest.raises(ConfigurationError):
            Configuration(small_graph, loss={(0, 5): 0.1})

    def test_invalid_probability(self, small_graph):
        with pytest.raises(ValidationError):
            Configuration(small_graph, crash={0: 1.5})
        with pytest.raises(ValidationError):
            Configuration.uniform(small_graph, loss=-0.1)

    def test_vectors_read_only(self, small_graph):
        c = Configuration.uniform(small_graph, crash=0.1)
        with pytest.raises(ValueError):
            c.crash_vector[0] = 0.9


class TestRandomUniform:
    def test_ranges_respected(self, small_graph):
        c = Configuration.random_uniform(
            small_graph,
            RandomSource(3),
            crash_range=(0.01, 0.02),
            loss_range=(0.1, 0.2),
        )
        assert all(
            0.01 <= c.crash_probability(p) <= 0.02 for p in small_graph.processes
        )
        assert all(
            0.1 <= c.loss_probability(link) <= 0.2 for link in small_graph.links
        )

    def test_deterministic(self, small_graph):
        a = Configuration.random_uniform(small_graph, RandomSource(3))
        b = Configuration.random_uniform(small_graph, RandomSource(3))
        assert a == b

    def test_bad_range(self, small_graph):
        with pytest.raises(ConfigurationError):
            Configuration.random_uniform(
                small_graph, RandomSource(1), crash_range=(0.5, 0.1)
            )


class TestTiered:
    def test_tier_assignment(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        lan = [Link.of(0, 1)]
        wan = [Link.of(1, 2), Link.of(2, 3)]
        c = Configuration.tiered(g, [(lan, 0.01), (wan, 0.2)], crash=0.05)
        assert c.loss_probability(Link.of(0, 1)) == 0.01
        assert c.loss_probability(Link.of(1, 2)) == 0.2
        assert c.crash_probability(0) == 0.05


class TestDerivedQuantities:
    def test_link_weight(self, small_config):
        link = Link.of(0, 1)
        expected = (1 - 0.0) * (1 - 0.01) * (1 - 0.01)
        assert small_config.link_weight(link) == pytest.approx(expected)

    def test_transmission_failure_direction(self, small_config):
        link = Link.of(1, 2)
        # same link, either sender: loss and both endpoint crashes are
        # involved symmetrically in this model
        from_1 = small_config.transmission_failure(1, link)
        from_2 = small_config.transmission_failure(2, link)
        expected = 1 - (1 - 0.01) * (1 - 0.10) * (1 - 0.02)
        assert from_1 == pytest.approx(expected)
        assert from_2 == pytest.approx(expected)

    def test_out_of_graph_queries(self, small_config):
        with pytest.raises(ConfigurationError):
            small_config.crash_probability(42)


class TestDerivation:
    def test_with_crash(self, small_config):
        updated = small_config.with_crash({0: 0.9})
        assert updated.crash_probability(0) == 0.9
        assert small_config.crash_probability(0) == 0.0
        assert updated.crash_probability(1) == small_config.crash_probability(1)

    def test_with_loss(self, small_config):
        link = Link.of(0, 1)
        updated = small_config.with_loss({link: 0.77})
        assert updated.loss_probability(link) == 0.77
        assert small_config.loss_probability(link) == 0.01

    @staticmethod
    def _rebuilt(config, crash=None, loss=None):
        """A derivation done the long way: every entry through ``__init__``."""
        graph = config.graph
        crash_map = {p: float(config.crash_vector[p]) for p in graph.processes}
        crash_map.update(crash or {})
        loss_map = {
            link: float(config.loss_vector[i]) for i, link in enumerate(graph.links)
        }
        for raw, value in (loss or {}).items():
            loss_map[Link.of(*raw)] = value
        return Configuration(graph, crash=crash_map, loss=loss_map)

    @pytest.mark.parametrize(
        "crash, loss",
        [
            ({0: 0.9}, None),
            ({}, None),
            ({5: 1.0, 1: 0}, None),
            (None, {(1, 0): 0.77}),
            (None, {(0, 1): 0.5, (1, 0): 0.25}),  # the later spelling wins
            (None, {}),
        ],
    )
    def test_derivations_equal_a_full_rebuild(self, small_config, crash, loss):
        derived = (
            small_config.with_crash(crash)
            if crash is not None
            else small_config.with_loss(loss)
        )
        assert derived == self._rebuilt(small_config, crash, loss)
        for vector in (derived.crash_vector, derived.loss_vector):
            assert not vector.flags.writeable
        # the parent is untouched by its derivation
        assert small_config == self._rebuilt(small_config)

    @pytest.mark.parametrize(
        "crash, loss",
        [
            ({99: 0.1}, None),
            ({-1: 0.1}, None),
            ({2: 1.5}, None),
            ({2: True}, None),
            ({2: float("nan")}, None),
            (None, {(0, 5): 0.1}),
            (None, {(0, 1): -0.2}),
            (None, {(0, 1): "0.2"}),
        ],
    )
    def test_derivations_raise_what_a_full_rebuild_raises(
        self, small_config, crash, loss
    ):
        with pytest.raises((ConfigurationError, ValidationError)) as rebuilt:
            self._rebuilt(small_config, crash, loss)
        with pytest.raises(rebuilt.type) as derived:
            if crash is not None:
                small_config.with_crash(crash)
            else:
                small_config.with_loss(loss)
        assert str(derived.value) == str(rebuilt.value)

    def test_for_graph_subset(self, small_graph, small_config):
        sub = small_graph.subgraph_links(
            [Link.of(0, 1), Link.of(1, 2), Link.of(2, 3), Link.of(3, 4), Link.of(4, 5)]
        )
        derived = small_config.for_graph(sub)
        assert derived.loss_probability(Link.of(1, 2)) == 0.10
        assert derived.crash_probability(4) == 0.05

    def test_for_graph_size_mismatch(self, small_config):
        with pytest.raises(ConfigurationError):
            small_config.for_graph(ring(5))

    def test_equality(self, small_graph):
        a = Configuration.uniform(small_graph, crash=0.1)
        b = Configuration.uniform(small_graph, crash=0.1)
        c = Configuration.uniform(small_graph, crash=0.2)
        assert a == b
        assert a != c
        assert a != 42
