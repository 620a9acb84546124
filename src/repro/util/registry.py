"""One name -> spec registry: resolution, alias bookkeeping, plugin discovery.

The protocol registry (:mod:`repro.protocols.registry`) and the
experiment registry (:mod:`repro.experiments.registry`) are each one
:class:`Registry` instance whose public functions delegate here.  A spec
is any object with a ``name`` and an ``aliases`` tuple; the rest of it is
its registry's business (see ``check``).

Names and aliases are normalised (stripped, lower-cased, ``_`` -> ``-``)
into one key space in which no key belongs to two specs.  A hit is one
normalise plus two dict lookups; only a miss or a listing runs plugin
discovery, once per process, in this order:

* **entry points** — the registry's group
  (``[project.entry-points."repro.protocols"]``), each member a spec, a
  zero-argument callable producing one, or a list of specs;
* **environment variable** — comma-separated ``module:attr`` items
  (``REPRO_PROTOCOLS=my_mod:SPEC``) importable from ``sys.path``; spawned
  campaign workers inherit it and re-run discovery on import.

A name already registered wins over a plugin's (built-ins and earlier
plugins are kept).  A plugin is atomic: if anything it yields is rejected
— wrong type, empty name, failed ``check``, a key colliding with the
registry or with a sibling — none of it stays registered, and the plugin
is skipped with a warning rather than taking the registry down.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import warnings
from typing import Callable, Dict, Generic, List, Optional, Tuple, Type, TypeVar, Union

from repro.errors import ReproError, ValidationError, did_you_mean

T = TypeVar("T")


def normalise(name: str) -> str:
    """The registry key of a name or alias."""
    return str(name).strip().lower().replace("_", "-")


@dataclasses.dataclass(eq=False)
class Registry(Generic[T]):
    """Specs of one kind, by canonical name and alias, in registration order.

    Attributes:
        spec_type: class every registered spec must be an instance of.
        kind: the word error messages use ("protocol", "experiment").
        unknown_error: raised by :meth:`resolve` / :meth:`unregister`
            for a name nothing owns (takes ``suggestion=``).
        entry_point_group: entry-point group plugins are declared under.
        plugin_env: environment variable listing ``module:attr`` plugins.
        check: optional ``check(name, spec)`` raising
            :class:`~repro.errors.ValidationError` for a malformed spec.
    """

    spec_type: Type[T]
    kind: str
    unknown_error: Type[ReproError]
    entry_point_group: str
    plugin_env: str
    check: Optional[Callable[[str, T], None]] = None

    def __post_init__(self) -> None:
        self._specs: Dict[str, T] = {}  # canonical name -> spec, in order
        self._owner: Dict[str, str] = {}  # name/alias key -> canonical name
        self._discovered = False

    def register(self, spec: T, replace: bool = False) -> T:
        """Register a spec; returns it for chaining.

        Raises:
            ValidationError: on a wrong type, an empty name, a failed
                ``check``, or a name/alias another spec owns — unless
                ``replace`` is set, which swaps the old spec out in
                place (same slot in registration order) and evicts any
                other spec whose name or alias the new one takes.
        """
        if not isinstance(spec, self.spec_type):
            type_name = self.spec_type.__name__
            article = "an" if type_name[0] in "AEIOU" else "a"
            raise ValidationError(
                f"register_{self.kind} takes {article} {type_name}, "
                f"got {type(spec).__name__}"
            )
        name = normalise(spec.name)
        if not name:
            raise ValidationError(f"{self.kind} name must be non-empty")
        if self.check is not None:
            self.check(name, spec)
        keys = [name] + [normalise(alias) for alias in spec.aliases]
        for key in keys:
            owner = self._owner.get(key, name)
            if owner == name:
                continue
            if not replace:
                raise ValidationError(
                    f"{self.kind} name/alias {key!r} is already registered "
                    f"(by {owner!r}); pass replace=True to override"
                )
            # evict the current owner of every colliding key, not just of
            # `name`: a replacing spec whose alias steals another spec's
            # canonical name must not leave that spec orphaned
            self.unregister(owner)
        if name in self._specs and not replace:
            raise ValidationError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to override"
            )
        self._drop_keys(name)
        self._specs[name] = spec  # a replaced name keeps its slot
        self._owner.update(dict.fromkeys(keys, name))
        return spec

    def _drop_keys(self, canonical: str) -> None:
        for key in [k for k, v in self._owner.items() if v == canonical]:
            del self._owner[key]

    def unregister(self, name: str, missing_ok: bool = False) -> None:
        """Remove a spec, by name or alias, with all its aliases."""
        canonical = self._owner.get(normalise(name))
        if canonical is not None:
            del self._specs[canonical]
            self._drop_keys(canonical)
        elif not missing_ok:
            raise self.unknown_error(f"unknown {self.kind} {name!r}")

    def resolve(self, name: Union[str, T]) -> T:
        """Resolve a name or alias to its spec (a spec passes through).

        Unknown names raise ``unknown_error`` listing the registered
        names, with the closest key as a "did you mean?" suggestion.
        """
        if isinstance(name, self.spec_type):
            return name
        key = normalise(name)
        canonical = self._owner.get(key)
        if canonical is None and not self._discovered:
            self.discover()
            canonical = self._owner.get(key)
        if canonical is None:
            suggestion, hint = did_you_mean(key, self._owner)
            raise self.unknown_error(
                f"unknown {self.kind} {name!r}; choose from "
                + ", ".join(self.names())
                + hint,
                suggestion=suggestion,
            )
        return self._specs[canonical]

    def names(self) -> Tuple[str, ...]:
        """Canonical names, in registration order (after discovery)."""
        self.discover()
        return tuple(self._specs)

    def specs(self) -> List[T]:
        """All registered specs, in registration order (after discovery)."""
        self.discover()
        return list(self._specs.values())

    def discover(self, force: bool = False) -> List[str]:
        """Load plugin specs (see the module docstring); returns new names."""
        if self._discovered and not force:
            return []
        self._discovered = True  # set first: a plugin may resolve names
        registered: List[str] = []
        for label, source, load in self._plugin_sources():
            try:
                registered += self._register_plugin(load(), source)
            except Exception as exc:  # noqa: BLE001 — isolate broken plugins
                warnings.warn(
                    f"skipping {self.kind} plugin {label}: {exc}", stacklevel=3
                )
        return registered

    def _plugin_sources(self) -> List[Tuple[str, str, Callable[[], object]]]:
        """``(warning label, source, loader)`` per plugin, in discovery order."""
        # imported here, not at module level: a process that only resolves
        # registered names never discovers, and never pays for it (~2 MB)
        from importlib import metadata

        entry_points = metadata.entry_points()
        if hasattr(entry_points, "select"):
            entry_points = entry_points.select(group=self.entry_point_group)
        else:  # Python 3.9: a plain dict of group -> entry points
            entry_points = entry_points.get(self.entry_point_group, [])
        sources = [
            (f"entry point {ep.name!r}", f"entry point {ep.name!r}", ep.load)
            for ep in entry_points
        ]
        for item in os.environ.get(self.plugin_env, "").split(","):
            item = item.strip()
            if item:
                label = f"{item!r} from {self.plugin_env}"
                load = functools.partial(self._import_attr, item)
                sources.append((label, f"{self.plugin_env}={item}", load))
        return sources

    def _import_attr(self, item: str) -> object:
        module_name, _, attr = item.partition(":")
        if not attr:
            raise ValidationError(
                f"{self.plugin_env} items must look like 'module:attr'"
            )
        return getattr(importlib.import_module(module_name), attr)

    def _register_plugin(self, obj: object, source: str) -> List[str]:
        """Register everything one plugin produced, or none of it."""
        if callable(obj) and not isinstance(obj, self.spec_type):
            obj = obj()
        saved = dict(self._specs), dict(self._owner)
        registered = []
        try:
            for spec in list(obj) if isinstance(obj, (list, tuple)) else [obj]:
                if not isinstance(spec, self.spec_type):
                    raise ValidationError(
                        f"plugin {source} produced {type(spec).__name__}, "
                        f"expected {self.spec_type.__name__}"
                    )
                if normalise(spec.name) in self._owner:
                    continue  # already present (built-in, earlier plugin): kept
                registered.append(self.register(spec).name)
        except Exception:
            self._specs, self._owner = saved  # all of a plugin's specs or none
            raise
        return registered
