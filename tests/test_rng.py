"""Unit tests for deterministic random streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ValidationError
from repro.util import rng as rng_module
from repro.util.rng import (
    BufferedIndices,
    BufferedUniforms,
    DrawLedger,
    RandomSource,
    StreamBatch,
    derive_seed,
    ledger_scope,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_no_concatenation_collision(self):
        """("ab", "c") must differ from ("a", "bc") — length prefixing."""
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_tuple_seeds(self):
        assert derive_seed(("x", 1)) == derive_seed(("x", 1))
        assert derive_seed(("x", 1)) != derive_seed(("x", 2))

    def test_float_and_bool_seeds(self):
        assert derive_seed(0.5) != derive_seed(0.25)
        assert derive_seed(True) != derive_seed(False)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            derive_seed(object())

    def test_golden_seeds(self):
        """Pins the seed rule: SHA-256 over the type-encoded, length-prefixed
        parts, first 8 bytes little-endian.  A change here reseeds every
        stream in the repository."""
        assert derive_seed("repro", 7) == 12153797410018589675
        assert (
            derive_seed(
                "net", "reconfigured", "reconfigured", "link-layer", "loss", 100
            )
            == 13397123410203446428
        )
        assert (
            derive_seed(b"\x00\xff", 0.25, True, ("x", -1, (2.5, False)))
            == 14689434670549766572
        )


_SCALAR_PART = (
    st.text(max_size=6)
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.binary(max_size=6)
)
_SEED_PART = st.recursive(
    _SCALAR_PART,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


class TestChildDerivation:
    @given(
        parts=st.lists(_SEED_PART, min_size=1, max_size=80),
        cuts=st.sets(st.integers(min_value=1, max_value=79)),
    )
    def test_chained_children_equal_flat_construction(self, parts, cuts):
        """However a label path is split across child() calls, the stream
        is the one ``RandomSource(*path)`` builds from scratch."""
        bounds = [0, *sorted(c for c in cuts if c < len(parts)), len(parts)]
        chained = RandomSource(*parts[: bounds[1]])
        for lo, hi in zip(bounds[1:], bounds[2:]):
            chained = chained.child(*parts[lo:hi])
        assert chained.seed_parts == tuple(parts)
        draws = chained.random_array(4).tolist()
        assert draws == RandomSource(*parts).random_array(4).tolist()
        seeded = np.random.default_rng(derive_seed(*parts))
        assert draws == seeded.random(4).tolist()

    def test_child_hashes_only_its_new_labels(self, monkeypatch):
        """The machine-independent guard against per-child cost growing
        with depth (quadratic in the number of reconfigurations)."""
        deep = RandomSource("root")
        for _ in range(200):
            deep = deep.child("reconfigured")
        calls = []
        encode = rng_module._seed_bytes

        def counting(part):
            calls.append(part)
            return encode(part)

        monkeypatch.setattr(rng_module, "_seed_bytes", counting)
        leaf = deep.child("loss", 17)
        assert calls == ["loss", 17]
        flat = RandomSource("root", *["reconfigured"] * 200, "loss", 17)
        assert leaf.random() == flat.random()


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(42).random()
        b = RandomSource(42).random()
        assert a == b

    def test_children_independent_of_sibling_draws(self):
        root1 = RandomSource(42)
        _ = root1.child("other").random_array(100)
        value1 = root1.child("target").random()
        value2 = RandomSource(42).child("target").random()
        assert value1 == value2

    def test_child_streams_differ(self):
        root = RandomSource(7)
        assert root.child("a").random() != root.child("b").random()

    def test_requires_seed(self):
        with pytest.raises(ValueError):
            RandomSource()

    def test_child_requires_a_label(self):
        """A label-less "child" would replay its parent's draws."""
        with pytest.raises(ValueError):
            RandomSource(42).child()

    def test_bernoulli_extremes(self):
        rng = RandomSource(1)
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True
        assert not rng.bernoulli_array(0.0, 10).any()
        assert rng.bernoulli_array(1.0, 10).all()

    @pytest.mark.parametrize(
        "flip",
        [lambda s: s.bernoulli(float("nan")), lambda s: s.bernoulli_array(np.nan, 4)],
    )
    def test_bernoulli_nan_is_rejected_before_drawing(self, flip):
        ledger = DrawLedger()
        with ledger_scope(ledger):
            rng = RandomSource("nan-flip")
        with pytest.raises(ValidationError):
            flip(rng)
        assert ledger.as_dict() == {}
        assert rng.random() == RandomSource("nan-flip").random()

    def test_bernoulli_rate(self):
        rng = RandomSource(3)
        draws = rng.bernoulli_array(0.3, 20_000)
        assert 0.28 < draws.mean() < 0.32

    def test_integer_range(self):
        rng = RandomSource(5)
        values = {rng.integer(3) for _ in range(200)}
        assert values == {0, 1, 2}
        values = {rng.integer(5, 8) for _ in range(200)}
        assert values == {5, 6, 7}

    def test_choice(self):
        rng = RandomSource(5)
        assert rng.choice(["x"]) == "x"
        with pytest.raises(ValueError):
            rng.choice([])

    def test_sample_distinct(self):
        rng = RandomSource(5)
        out = rng.sample(list(range(10)), 5)
        assert len(set(out)) == 5
        with pytest.raises(ValueError):
            rng.sample([1, 2], 3)

    def test_shuffled_is_permutation(self):
        rng = RandomSource(9)
        items = list(range(20))
        out = rng.shuffled(items)
        assert sorted(out) == items
        assert items == list(range(20))  # original untouched

    def test_exponential_mean(self):
        rng = RandomSource(11)
        values = [rng.exponential(2.0) for _ in range(5000)]
        assert 1.85 < np.mean(values) < 2.15
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_geometric(self):
        rng = RandomSource(13)
        values = [rng.geometric(0.5) for _ in range(2000)]
        assert min(values) >= 1
        assert 1.85 < np.mean(values) < 2.15
        with pytest.raises(ValueError):
            rng.geometric(0.0)

    def test_spawn_sequence_unique(self):
        rng = RandomSource(1)
        gen = rng.spawn_sequence("workers")
        first, second = next(gen), next(gen)
        assert first.random() != second.random()

    def test_seed_parts_exposed(self):
        rng = RandomSource("root").child("x", 2)
        assert rng.seed_parts == ("root", "x", 2)


class TestLazyGenerator:
    def test_child_only_stream_never_builds_a_generator(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        root = RandomSource("lazy", 3)
        leaf = root.child("network").child("loss", 4)
        assert built == []
        leaf.random()
        assert built == [derive_seed("lazy", 3, "network", "loss", 4)]

    @pytest.mark.parametrize(
        "draw",
        [
            lambda s: [s.random() for _ in range(5)],
            lambda s: s.random_array(5).tolist(),
            lambda s: [s.integer(10) for _ in range(5)],
            lambda s: s.shuffled(range(10)),
            lambda s: _drain(s.buffered(), 5),
            lambda s: s.generator.random(5).tolist(),
        ],
    )
    def test_draws_equal_an_eagerly_built_generator(self, draw):
        eager = np.random.default_rng(derive_seed("lazy-eq", "x"))
        lazy = RandomSource("lazy-eq").child("x")
        assert draw(lazy) == draw(_Eager(eager))

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError, match="nope"):
            RandomSource("lazy-attr").nope


def _drain(buffered, count):
    return [buffered.next() for _ in range(count)]


class _Eager:
    """The draw helpers' calls, made straight on a given Generator."""

    def __init__(self, generator):
        self.generator = generator

    def random(self):
        return float(self.generator.random())

    def random_array(self, size):
        return self.generator.random(size)

    def integer(self, high):
        return int(self.generator.integers(high))

    def shuffled(self, seq):
        out = list(seq)
        self.generator.shuffle(out)
        return out

    def buffered(self):
        return self

    def next(self):
        return float(self.generator.random())


class _CountingGenerator:
    """A Generator stand-in that records each batched request's size."""

    def __init__(self, generator):
        self._generator = generator
        self.requests = []

    def random(self, size):
        self.requests.append(size)
        return self._generator.random(size)

    def integers(self, bound, size):
        self.requests.append(size)
        return self._generator.integers(bound, size=size)


def _ledger_key(build):
    """The one ledger key a single draw on ``build()``'s stream lands on."""
    ledger = DrawLedger()
    with ledger_scope(ledger):
        build().random()
    (key,) = ledger.as_dict()
    return key


class TestLedgerKeys:
    def test_repeated_labels_are_run_length_encoded(self):
        def build():
            net = RandomSource("scenario", "trial", 3).child("network")
            for _ in range(62):
                net = net.child("reconfigured")
            return net.child("link-layer").child("loss", 100)

        assert (
            _ledger_key(build)
            == "scenario/network/reconfigured*62/link-layer/loss/100"
        )

    def test_runs_fold_within_and_across_child_calls(self):
        def across():
            return RandomSource("r").child("a", "a").child("a", "b")

        assert _ledger_key(across) == "r/a*3/b"
        assert _ledger_key(lambda: RandomSource("r").child("r", 1, 1)) == "r*2/1*2"

    def test_keys_without_repeats_are_plain_paths(self):
        def build():
            return RandomSource("unit", "ignored").child("net", 3).child("loss")

        assert _ledger_key(build) == "unit/net/3/loss"

    def test_folding_never_touches_the_seed(self):
        with ledger_scope(DrawLedger()):
            folded = RandomSource("r").child("x").child("x")
        assert folded.seed_parts == ("r", "x", "x")
        assert folded.random() == RandomSource("r", "x", "x").random()


class TestBufferedUniforms:
    def test_bit_identical_to_single_draws(self):
        """The kernel's batched draws must equal one-at-a-time draws."""
        singles = RandomSource("buffered", 7)
        buffered = RandomSource("buffered", 7).buffered(block=16)
        # spans several refills and a partial block
        expected = [singles.random() for _ in range(1000)]
        got = [buffered.next() for _ in range(1000)]
        assert got == expected

    def test_values_are_python_floats_in_range(self):
        draw = RandomSource("buffered-range").buffered(block=4)
        values = [draw.next() for _ in range(64)]
        assert all(isinstance(v, float) and 0.0 <= v < 1.0 for v in values)

    @pytest.mark.parametrize("block", [1, 3, 16, 256])
    def test_every_block_cap_matches_single_draws(self, block):
        singles = RandomSource("buffered-cap", block)
        spy = _CountingGenerator(RandomSource("buffered-cap", block).generator)
        buffered = BufferedUniforms(spy, block)
        expected = [singles.random() for _ in range(2000)]
        assert [buffered.next() for _ in range(2000)] == expected
        assert max(spy.requests) <= block

    def test_refills_follow_demand(self):
        """A stream drawn twice must not pay for a full block; a long one
        must still reach the cap."""
        spy = _CountingGenerator(RandomSource("buffered-demand").generator)
        buffered = BufferedUniforms(spy)
        buffered.next()
        buffered.next()
        assert sum(spy.requests) < 256
        for _ in range(2000):
            buffered.next()
        assert spy.requests == sorted(spy.requests)  # sizes only grow
        assert spy.requests[-1] == 256

    def test_ledger_counts_values_consumed_not_refills(self):
        ledger = DrawLedger()
        with ledger_scope(ledger):
            buffered = RandomSource("buffered-ledger").child("loss").buffered()
        for _ in range(7):
            buffered.next()
        assert ledger.as_dict() == {"buffered-ledger/loss": 7}

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            RandomSource("buffered-bad").buffered(block=0)

    @pytest.mark.parametrize("block", [2.5, True, 0, -1, "8"])
    def test_bad_block_is_rejected_at_construction(self, block):
        with pytest.raises(ValidationError, match="block"):
            RandomSource("buffered-bad").buffered(block)

    def test_wraps_the_streams_own_generator(self):
        source = RandomSource("buffered-shared")
        assert isinstance(source.buffered(), BufferedUniforms)
        # two wrappers over independent equal streams agree
        a = RandomSource("twin").buffered(block=3)
        b = RandomSource("twin").buffered(block=1000)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


class TestBufferedIndices:
    # first refills of 4, 16, 64 and 256 values: 400 draws span four refills
    DRAWS = 400

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 2**31 - 1, 2**31 + 1, 2**32 - 1])
    def test_bit_identical_to_single_draws(self, bound):
        """Batched ``integers(bound, size)`` consumes the bit stream exactly
        as repeated scalar ``integers(bound)`` does, rejections included."""
        twin = RandomSource("indices", bound).generator
        picks = RandomSource("indices", bound).buffered_indices(bound)
        expected = [int(twin.integers(bound)) for _ in range(self.DRAWS)]
        got = [picks.next() for _ in range(self.DRAWS)]
        assert got == expected
        assert all(type(v) is int for v in got)

    def test_picks_equal_choice_and_ledger_alike(self):
        seq = tuple("abcdefg")
        ledgers = DrawLedger(), DrawLedger()
        with ledger_scope(ledgers[0]):
            picks = RandomSource("pick").child("peer").buffered_indices(len(seq))
        with ledger_scope(ledgers[1]):
            chooser = RandomSource("pick").child("peer")
        got = [seq[picks.next()] for _ in range(self.DRAWS)]
        assert got == [chooser.choice(seq) for _ in range(self.DRAWS)]
        assert ledgers[0].as_dict() == ledgers[1].as_dict()
        assert ledgers[0].as_dict() == {"pick/peer": self.DRAWS}

    def test_refills_follow_demand(self):
        spy = _CountingGenerator(RandomSource("indices-demand").generator)
        picks = BufferedIndices(spy, 5)
        for _ in range(self.DRAWS):
            picks.next()
        assert spy.requests == [4, 16, 64, 256, 256]

    @pytest.mark.parametrize("bound", [0, -1, True, 2.5])
    def test_bad_bound_is_rejected(self, bound):
        with pytest.raises(ValidationError, match="bound"):
            RandomSource("indices-bad").buffered_indices(bound)


def _pcg64_seeds(seeds):
    """The batch's PCG64 seed rows for ``seeds``, mixed in one pass."""
    entropy = np.array([[s & 0xFFFFFFFF for s in seeds], [s >> 32 for s in seeds]])
    return rng_module._pcg64_seed_words(entropy.astype(np.uint32))


class TestStreamBatch:
    def test_seed_words_give_numpys_pcg64_seeding(self):
        drawn = np.random.default_rng(2024).integers(0, 2**64, 10_000, np.uint64)
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds = [int(s) for s in drawn] + edges
        rows = _pcg64_seeds(seeds)
        for seed, row in zip(seeds, rows):
            preset = np.random.PCG64(rng_module._preset_seed()(row))
            assert preset.state == np.random.PCG64(seed).state, seed

    def test_buffered_equals_child_buffered(self):
        # 1,000 draws pass through every refill size (4, 16, 64, 256)
        parent = RandomSource("batch", 5).child("reconfigured").child("link-layer")
        ids = [0, 1, 499, 10**6]
        batch = StreamBatch(parent, "loss", [7, *ids])
        for i in ids:
            expected = parent.child("loss", i).buffered()
            assert _drain(batch.buffered(i), 1000) == _drain(expected, 1000), i

    def test_ledger_keys_and_counts_equal_child_streams(self):
        def drive(build):
            ledger = DrawLedger()
            with ledger_scope(ledger):
                parent = RandomSource("scenario", 2).child("x").child("x")
                for i, draws in ((3, 5), (40, 1), (3, 2)):
                    _drain(build(parent, i), draws)
            return ledger.as_dict()

        batched = drive(
            lambda parent, i: StreamBatch(parent, "loss", [3, 40]).buffered(i)
        )
        reference = drive(lambda parent, i: parent.child("loss", i).buffered())
        assert batched == reference
        assert reference == {"scenario/x*2/loss/3": 7, "scenario/x*2/loss/40": 1}

    def test_unledgered_parent_binds_the_ambient_ledger_like_child(self):
        parent = RandomSource("outside", 1)
        batch = StreamBatch(parent, "loss", [9])
        counts = []
        for build in (
            lambda: batch.buffered(9),
            lambda: parent.child("loss", 9).buffered(),
        ):
            ledger = DrawLedger()
            with ledger_scope(ledger):
                _drain(build(), 3)
            counts.append(ledger.as_dict())
        assert counts == [{"outside": 3}] * 2

    def test_empty_batch_and_unknown_id(self):
        batch = StreamBatch(RandomSource("empty"), "loss", [])
        with pytest.raises(KeyError):
            batch.buffered(0)
