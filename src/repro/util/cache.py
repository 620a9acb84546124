"""On-disk JSON result cache for experiment trials.

Campaign runs (see :mod:`repro.experiments.campaign`) key every completed
trial by a content hash of its *full parameterisation* — experiment
function, scale-derived sizes, seeds, probabilities — and persist the
result as one small JSON file per trial.  Re-running a campaign (or
resuming one that was interrupted mid-sweep) then costs only the trials
that never finished: everything already on disk is returned without
touching the simulator.

The cache is deliberately dumb and robust:

* one file per entry (``<sha256>.json``) — no index to corrupt, safe to
  prune with ``rm``;
* writes are atomic (temp file + :func:`os.replace`) so a killed process
  never leaves a half-written entry;
* unreadable or malformed entries are treated as misses, never as errors:
  :meth:`TrialCache.get` returns a payload only when it has the shape
  trials are stored in — a dict of real numbers — so a hand-edited or
  truncated entry is recomputed and overwritten, not aggregated.  Entries
  are read by :func:`repro.util.jsonio.loads`, so ``NaN``, ``Infinity``
  and ``-Infinity`` tokens, literals that overflow a float (``1e400``)
  and duplicate keys at any level are misses too; :meth:`TrialCache.put`
  never writes such an entry.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Dict, Iterator, Optional

from repro.errors import ValidationError
from repro.util import jsonio

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """Resolve the cache directory (env ``REPRO_CACHE_DIR`` > default)."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


#: ``os.open`` flags for reading an entry (``O_BINARY`` exists on Windows).
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)

#: Bytes asked of each ``os.read``; an entry is a few hundred bytes.
_READ_SIZE = 8192


def content_key(payload: object) -> str:
    """Hash a JSON-able payload into a stable hex content key.

    The payload is canonicalised (sorted keys, no whitespace) before
    hashing so logically equal dicts produce the same key.  ``NaN`` and
    infinities are rejected: they would not round-trip through JSON.
    """
    canonical = jsonio.dumps(payload)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TrialCache:
    """Directory-backed key/value store of JSON-able trial results.

    Example:
        >>> import tempfile
        >>> cache = TrialCache(tempfile.mkdtemp())
        >>> cache.put("k" * 64, {"messages": 42.0})
        >>> cache.get("k" * 64)
        {'messages': 42.0}
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._dir = directory or default_cache_dir()
        os.makedirs(self._dir, exist_ok=True)
        # what os.path.join(directory, name) puts before the entry name
        self._prefix = os.path.join(self._dir, "")

    @property
    def directory(self) -> str:
        return self._dir

    def _path(self, key: str) -> str:
        return self._prefix + key + ".json"

    def get(self, key: str) -> Optional[Dict]:
        """Return the cached payload for ``key``, or None on any miss.

        A payload is a ``{metric: number}`` dict (what
        :func:`~repro.experiments.campaign.execute_spec` writes); an
        entry holding anything else is a miss.

        The entry is read until a read comes back short of the buffer,
        so a hit costs one ``os.read``.  A short read before the end of
        the file could only cut the text, and a cut-off JSON object
        never parses: the worst case is a miss, never a wrong hit.
        """
        try:
            # a raw descriptor: a buffered file object costs more to
            # build than the few hundred bytes of an entry take to read
            fd = os.open(self._path(key), _READ_FLAGS)
        except OSError:
            return None
        try:
            data = chunk = os.read(fd, _READ_SIZE)
            while len(chunk) == _READ_SIZE:
                chunk = os.read(fd, _READ_SIZE)
                data += chunk
            entry = jsonio.loads(data)
        except (OSError, ValueError):
            return None
        finally:
            os.close(fd)
        result = entry.get("result") if isinstance(entry, dict) else None
        if not isinstance(result, dict):
            return None
        for value in result.values():
            # JSON yields exact types, so this also rejects true/false
            if type(value) not in (float, int):
                return None
        return result

    def put(self, key: str, result: Dict, context: Optional[Dict] = None) -> None:
        """Atomically persist ``result`` (with optional debug ``context``).

        An entry holding NaN or an infinity is not written: :meth:`get`
        would refuse it, so the trial is recomputed on the next run.
        """
        entry = {"result": result}
        if context:
            entry["context"] = context
        # one-shot dumps takes the C encoder; json.dump's streaming encoder
        # is nested closures that leave a reference cycle behind per call
        try:
            text = jsonio.dumps(entry, compact=False)
        except ValidationError:
            return
        fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def keys(self) -> Iterator[str]:
        for name in sorted(os.listdir(self._dir)):
            if name.endswith(".json"):
                yield name[: -len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                os.unlink(self._path(key))
                removed += 1
            except OSError:
                pass
        return removed
