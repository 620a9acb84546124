"""Deterministic, splittable random streams for reproducible simulations.

A discrete-event simulation that draws crash and loss outcomes from one
shared generator is fragile: adding a single extra draw anywhere perturbs
every subsequent outcome.  :class:`RandomSource` therefore hands out
*named child streams* — each (parent seed, label) pair maps to an
independent :class:`numpy.random.Generator`, so per-link loss draws,
per-process crash draws and workload generation each consume their own
stream and experiments remain reproducible under refactoring.
:class:`StreamBatch` seeds many sibling streams in one vectorised pass.
:class:`BufferedUniforms` and :class:`BufferedIndices` serve a stream's
uniform floats or bounded indices from blocks of draws, bit-identical
to drawing them one at a time.

The module also hosts the opt-in **draw ledger** (:class:`DrawLedger`
plus :func:`ledger_scope`): while a ledger is active, every stream
constructed inside the scope counts its draws under a stable per-stream
key (root name plus "/"-joined child labels).  The ledger is the runtime
half of the determinism contract enforced statically by ``repro lint``:
recorded into trial provenance, it lets ``repro results diff`` attribute
a digest drift to the exact labelled stream whose draw count diverged.
Ledger bookkeeping never touches any generator, so enabling it cannot
perturb a trial's outcomes.
"""

from __future__ import annotations

import functools
import hashlib
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.util.validation import check_positive_int

SeedLike = Union[int, str, bytes]


class DrawLedger:
    """Per-labelled-stream RNG draw counts for one trial.

    Counts are keyed by the stream's label path (e.g.
    ``"repro-scenario/net/loss/3"``) and record *logical draws*: one per
    scalar helper call, ``size`` per array helper, ``k`` per sample,
    ``len(seq)`` per shuffle.  Direct :attr:`RandomSource.generator`
    access is intentionally uncounted — bulk vectorised consumers own
    their stream outright and are covered by the stream's existence in
    the ledger, not its exact count.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def record(self, stream: str, draws: int = 1) -> None:
        self.counts[stream] = self.counts.get(stream, 0) + draws

    def as_dict(self) -> Dict[str, int]:
        """Counts in sorted-key order (stable for provenance JSON)."""
        return {key: self.counts[key] for key in sorted(self.counts)}

    @property
    def total(self) -> int:
        return sum(self.counts.values())


_ACTIVE_LEDGER: Optional[DrawLedger] = None


@contextmanager
def ledger_scope(ledger: DrawLedger) -> Iterator[DrawLedger]:
    """Activate ``ledger`` for streams constructed inside the scope.

    Streams bind the ambient ledger at construction time, so a stream
    created inside the scope keeps counting after the scope exits (a
    trial function may return generators lazily) while streams created
    outside stay unledgered.  Scopes do not nest: trials are the unit
    of accounting and never run inside one another.
    """
    global _ACTIVE_LEDGER
    if _ACTIVE_LEDGER is not None:
        raise RuntimeError("ledger_scope does not nest")
    _ACTIVE_LEDGER = ledger
    try:
        yield ledger
    finally:
        _ACTIVE_LEDGER = None


#: First refill of a block buffer and the factor by which each later
#: refill grows, up to the buffer's ``block`` cap.
_FIRST_BLOCK = 4
_BLOCK_GROWTH = 4


class _BlockBuffer:
    """Draws served from blocks of one generator; subclasses draw a block."""

    __slots__ = (
        "_generator", "_block", "_size", "_buffer", "_pos", "_ledger", "_stream"
    )

    def __init__(
        self,
        generator: np.random.Generator,
        block: int = 256,
        _ledger: Optional[DrawLedger] = None,
        _stream: str = "",
    ) -> None:
        check_positive_int(block, "block")
        self._generator = generator
        self._block = block
        self._size = min(_FIRST_BLOCK, block)  # the next refill's size
        self._buffer: list = []
        self._pos = 0
        self._ledger = _ledger
        self._stream = _stream

    def _draw(self, size: int) -> list:
        raise NotImplementedError

    def next(self):
        """The next value of the wrapped stream."""
        if self._ledger is not None:
            self._ledger.record(self._stream)
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            size = self._size
            buffer = self._buffer = self._draw(size)
            self._size = min(size * _BLOCK_GROWTH, self._block)
            pos = 0
        self._pos = pos + 1
        return buffer[pos]


class BufferedUniforms(_BlockBuffer):
    """Block-buffered uniform draws off one :class:`numpy.random.Generator`.

    ``next()`` is bit-identical to calling ``float(generator.random())``
    repeatedly — NumPy fills a batched ``random(size)`` request from the
    same underlying bit stream in the same order, so ``random(4)`` then
    ``random(16)`` yield the values of one ``random(20)`` — but amortises
    the per-call Generator dispatch over a block of draws, which matters
    on per-message hot paths (crash and link-loss draws).

    Refills are sized to demand: the first is ``_FIRST_BLOCK`` values and
    each later one ``_BLOCK_GROWTH`` times the previous, capped at
    ``block``.  A stream that is drawn a handful of times (one link's
    loss draws between two reconfigurations) never pays for a full block,
    while a long-lived stream reaches the cap after three refills.

    The wrapper advances the generator a block of draws at a time, so a
    stream must be consumed either entirely through one wrapper or
    entirely through direct calls — mixing the two would skip buffered
    values.  (All simulation hot paths own their child stream outright.)

    Ledger accounting counts one logical draw per ``next()`` call — the
    value actually consumed — not the block-sized refills, so buffered
    and unbuffered consumption of a stream ledger identically.
    """

    __slots__ = ()

    def _draw(self, size: int) -> list:
        # .tolist() converts float64 -> float exactly and makes the
        # per-draw indexing a plain list access
        return self._generator.random(size).tolist()


class BufferedIndices(_BlockBuffer):
    """Block-buffered ``integers(bound)`` draws: uniform indices below ``bound``.

    ``next()`` is bit-identical to calling ``int(generator.integers(bound))``
    repeatedly, the draw behind :meth:`RandomSource.choice` over a
    sequence of ``bound`` items.  NumPy serves a bound up to 2³² from
    32-bit draws, and PCG64 keeps the unused half of a 64-bit output
    between calls, so scalar and batched ``integers`` consume one
    persistent 32-bit stream in the same order (including Lemire
    rejections); a larger bound draws 64 bits per try either way.  The
    bound is fixed per wrapper — a per-process neighbour pick, whose
    neighbour set never changes.  Refills (with the default ``block``
    cap), exclusivity and ledger accounting are those of
    :class:`BufferedUniforms`: one logical draw per ``next()``, as one
    ``choice`` call counts.
    """

    __slots__ = ("_bound",)

    def __init__(
        self,
        generator: np.random.Generator,
        bound: int,
        _ledger: Optional[DrawLedger] = None,
        _stream: str = "",
    ) -> None:
        self._bound = check_positive_int(bound, "bound")
        super().__init__(generator, _ledger=_ledger, _stream=_stream)

    def _draw(self, size: int) -> list:
        return self._generator.integers(self._bound, size=size).tolist()


def _seed_bytes(seed: SeedLike) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, bool):
        return b"\x01" if seed else b"\x00"
    if isinstance(seed, (int, np.integer)):
        return int(seed).to_bytes(16, "little", signed=True)
    if isinstance(seed, float):
        return repr(seed).encode("utf-8")
    if isinstance(seed, (tuple, list)):
        parts = [b"seq"]
        for item in seed:
            chunk = _seed_bytes(item)
            parts.append(len(chunk).to_bytes(4, "little"))
            parts.append(chunk)
        return b"".join(parts)
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


def _absorb(digest: "hashlib._Hash", parts: Sequence[SeedLike]) -> None:
    """Feed ``parts`` to ``digest``, each behind its 4-byte length."""
    for part in parts:
        chunk = _seed_bytes(part)
        digest.update(len(chunk).to_bytes(4, "little"))
        digest.update(chunk)


def _seed_of(digest: "hashlib._Hash") -> int:
    return int.from_bytes(digest.digest()[:8], "little")


def derive_seed(*parts: SeedLike) -> int:
    """Hash an arbitrary sequence of seed parts into a 64-bit integer.

    The seed is the first 8 bytes, little-endian, of the SHA-256 of the
    parts, each encoded by type and prefixed with its 4-byte length.
    Length prefixing makes the hash a streaming one: the digest state
    after ``parts[:k]``, fed ``parts[k:]``, is the digest of ``parts``.
    :meth:`RandomSource.child` relies on this to derive a seed from its
    parent's state without re-hashing the parent's path.
    """
    digest = hashlib.sha256()
    _absorb(digest, parts)
    return _seed_of(digest)


# NumPy's SeedSequence (random/bit_generator.pyx) on (words, seeds) arrays
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(xor, multiplier) of ``calls`` successive hashmixes, ``(2, calls, 1)``."""
    chain = np.cumprod([init] + [mult] * calls, dtype=np.uint32)
    return np.stack([chain[:-1], chain[1:]])[:, :, None]


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # INIT_A, MULT_A
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # INIT_B, MULT_B
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _pcg64_seed_words(entropy: np.ndarray) -> np.ndarray:
    """Rows ``SeedSequence(s).generate_state(4, np.uint64)`` for seeds given as
    (low, high) 32-bit word rows; a zero high word mixes as one-word entropy."""
    pool = _hashmix(np.vstack([entropy, np.zeros_like(entropy)]), *_POOL_HASH[:, :4])
    xor, mult = _POOL_HASH[:, 4:].reshape(2, 4, 3, 1)
    for src in range(4):
        # the three mixes out of one source word are independent
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], xor[src], mult[src]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(pool[[0, 1, 2, 3] * 2], *_STATE_HASH).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@functools.cache
def _preset_seed() -> type:
    """PCG64's seed sequence for a precomputed row (numpy.random loads lazily)."""

    class PresetSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self._words

    return PresetSeed


#: A ledger key in run-length form: (the rendered labels before the last
#: one, with their trailing "/"; the last label; how often it repeats).
_LedgerKey = Tuple[str, str, int]


def _render_key(key: _LedgerKey) -> str:
    head, last, run = key
    return head + last if run == 1 else f"{head}{last}*{run}"


def _extend_key(key: _LedgerKey, labels: Sequence[SeedLike]) -> _LedgerKey:
    """``key`` plus ``labels``, consecutive repeats folded to ``label*n``.

    A network reconfigured 62 times keys its streams
    ``.../reconfigured*62/...`` instead of growing by one path segment
    per reconfiguration.  Only the ledger key is folded, never the seed.
    """
    head, last, run = key
    for label in labels:
        text = str(label)
        if text == last:
            run += 1
        else:
            head = _render_key((head, last, run)) + "/"
            last, run = text, 1
    return head, last, run


def _bind_ledger(parent: Optional["RandomSource"], labels: Sequence[SeedLike]) -> tuple:
    """Ledger, key and rendered key of the stream ``parent`` derives by ``labels``."""
    ledger = None if parent is None else parent._ledger
    if ledger is None:
        # keyed by the root *name* only: a root's later parts (scenario name,
        # protocol, trial index) vary per trial and would fragment the keys
        root = labels[0] if parent is None else parent._seed_parts[0]
        ledger, key = _ACTIVE_LEDGER, ("", str(root), 1)
    else:
        key = _extend_key(parent._key, labels)
    return ledger, key, "" if ledger is None else _render_key(key)


class StreamBatch:
    """The streams ``source.child(label, i)`` for many int ids, seeded at once.

    ``buffered(i)`` is ``source.child(label, i).buffered()`` bit for bit,
    ledger included, with no ``RandomSource`` or ``SeedSequence`` of its own.
    """

    __slots__ = ("_source", "_label", "_rows", "_words")

    def __init__(self, source: "RandomSource", label: SeedLike, ids: Sequence[int]):
        digest = source._digest.copy()
        _absorb(digest, (label,))
        seeds = []
        for i in ids:  # what _absorb feeds for an int: length 16, 16 bytes
            child = digest.copy()
            child.update(b"\x10\0\0\0" + i.to_bytes(16, "little", signed=True))
            seeds.append(child.digest()[:8])
        entropy = np.frombuffer(b"".join(seeds), dtype="<u4").reshape(-1, 2)
        self._words = _pcg64_seed_words(entropy.T)
        self._rows = {i: row for row, i in enumerate(ids)}
        self._source, self._label = source, label

    def buffered(self, i: int) -> BufferedUniforms:
        ledger, _, stream = _bind_ledger(self._source, (self._label, i))
        seed = _preset_seed()(self._words[self._rows[i]])
        generator = np.random.Generator(np.random.PCG64(seed))
        return BufferedUniforms(generator, _ledger=ledger, _stream=stream)


class RandomSource:
    """A labelled, splittable deterministic random stream.

    Each stream keeps the SHA-256 state that has absorbed its own label
    path, so deriving a child hashes only the child's new labels however
    deep the parent sits; ``root.child(*a).child(*b)`` has exactly the
    seed ``derive_seed(*root.seed_parts, *a, *b)``.

    Example:
        >>> root = RandomSource(42)
        >>> link_stream = root.child("link", 3, 7)
        >>> crash_stream = root.child("crash", 3)
        >>> link_stream.random() == RandomSource(42).child("link", 3, 7).random()
        True
    """

    __slots__ = (
        "_seed_parts", "_digest", "_generator", "_ledger", "_key", "_stream"
    )

    def __init__(
        self, *seed_parts: SeedLike, _parent: Optional["RandomSource"] = None
    ) -> None:
        if not seed_parts:
            raise ValueError("at least one seed part is required")
        # _parent is child()'s way in: seed_parts are then the labels that
        # extend the parent's path, hashed onto a copy of its digest state
        if _parent is None:
            digest = hashlib.sha256()
            self._seed_parts = seed_parts
        else:
            digest = _parent._digest.copy()
            self._seed_parts = _parent._seed_parts + seed_parts
        _absorb(digest, seed_parts)
        self._digest = digest
        # _generator stays unset until first read: see __getattr__
        self._ledger, self._key, self._stream = _bind_ledger(_parent, seed_parts)

    def __getattr__(self, name: str) -> np.random.Generator:
        # reached only for an unset slot: _generator is built on first
        # read, since many streams only derive children and never draw
        if name != "_generator":
            raise AttributeError(name)
        generator = self._generator = np.random.default_rng(_seed_of(self._digest))
        return generator

    @property
    def seed_parts(self) -> Sequence[SeedLike]:
        """The parts this stream was derived from (for diagnostics)."""
        return self._seed_parts

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator (for bulk vectorised draws).

        Draws made directly on the generator bypass ledger accounting;
        see :class:`DrawLedger`.
        """
        return self._generator

    def child(self, *labels: SeedLike) -> "RandomSource":
        """Derive an independent child stream for the given labels.

        Raises:
            ValueError: if no label is given (the "child" would replay
                this stream's draws).
        """
        return RandomSource(*labels, _parent=self)

    def buffered(self, block: int = 256) -> BufferedUniforms:
        """Wrap this stream's generator for block-buffered uniform draws.

        See :class:`BufferedUniforms`: draw values are bit-identical to
        repeated :meth:`random` calls, but the stream must then be
        consumed exclusively through the returned wrapper.
        """
        return BufferedUniforms(
            self._generator, block, _ledger=self._ledger, _stream=self._stream
        )

    def buffered_indices(self, bound: int) -> BufferedIndices:
        """Wrap this stream's generator for block-buffered picks below ``bound``.

        See :class:`BufferedIndices`: ``seq[wrapper.next()]`` is bit-identical
        to repeated :meth:`choice` calls over a fixed ``seq`` of ``bound``
        items, ledger included, with the same exclusivity rule as
        :meth:`buffered`.
        """
        return BufferedIndices(
            self._generator, bound, _ledger=self._ledger, _stream=self._stream
        )

    def _count(self, draws: int) -> None:
        if self._ledger is not None:
            self._ledger.record(self._stream, draws)

    # -- convenience draw helpers -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        self._count(1)
        return float(self._generator.random())

    def random_array(self, size: int) -> np.ndarray:
        """Vector of uniform floats in [0, 1)."""
        self._count(size)
        return self._generator.random(size)

    def bernoulli(self, p: float) -> bool:
        """Single biased coin flip; always False for p <= 0, True for p >= 1."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        if p != p:  # NaN
            raise ValidationError(f"p must be a probability, got {p!r}")
        self._count(1)
        return bool(self._generator.random() < p)

    def bernoulli_array(self, p: float, size: int) -> np.ndarray:
        """Boolean vector of independent biased coin flips."""
        if p <= 0.0:
            return np.zeros(size, dtype=bool)
        if p >= 1.0:
            return np.ones(size, dtype=bool)
        if p != p:  # NaN
            raise ValidationError(f"p must be a probability, got {p!r}")
        self._count(size)
        return self._generator.random(size) < p

    def integer(self, low: int, high: Optional[int] = None) -> int:
        """Uniform integer in [low, high) (or [0, low) if high omitted)."""
        self._count(1)
        return int(self._generator.integers(low, high))

    def choice(self, seq: Sequence) -> object:
        """Uniformly choose one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        self._count(1)
        return seq[int(self._generator.integers(len(seq)))]

    def sample(self, seq: Sequence, k: int) -> list:
        """Choose ``k`` distinct elements without replacement."""
        if k > len(seq):
            raise ValueError(f"sample size {k} exceeds population {len(seq)}")
        self._count(k)
        idx = self._generator.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, seq: Sequence) -> list:
        """Return a new list with the elements of ``seq`` in random order."""
        out = list(seq)
        self._count(len(out))
        self._generator.shuffle(out)
        return out

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0.0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._count(1)
        return float(self._generator.exponential(mean))

    def geometric(self, p: float) -> int:
        """Geometric variate (number of trials until first success, >= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0,1], got {p}")
        self._count(1)
        return int(self._generator.geometric(p))

    def spawn_sequence(self, label: str) -> Iterator["RandomSource"]:
        """Yield an unbounded sequence of independent child streams."""
        counter = 0
        while True:
            yield self.child(label, counter)
            counter += 1
