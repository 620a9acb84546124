"""The program's one JSON boundary: strict reading, fixed writing, one codec.

:func:`loads` parses every JSON the program takes in (trial-cache
entries, promoted scenario files, campaign payloads) and refuses
duplicate keys, the ``NaN``/``Infinity`` tokens and literals that
overflow a float (``1e400``): the paper's failure model is defined for
finite times and probabilities only.  :func:`dumps` writes the canonical
form that cache keys hash.  :func:`encode` and :func:`decode` map
dataclasses to JSON and back by their field annotations; value checks
stay in each class's ``__post_init__``.  Every failure is a
:class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import abc
from typing import Any, Dict, Union, get_args, get_origin, get_type_hints

from repro.errors import ValidationError, did_you_mean
from repro.util.validation import coerce_scalar, unwrap_optional

#: Field metadata for a key :func:`encode` leaves out while its value is
#: None, so records that never set it keep their earlier bytes.
OMIT_NONE = {"json": "omit-none"}


def _object(pairs, dict=dict, len=len):  # locals: one call per object
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        duplicate = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"duplicate key {duplicate!r}")
    return obj


def _constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _float(text: str) -> float:
    value = float(text)
    if value - value != 0.0:  # inf - inf is nan
        raise ValueError(f"number {text} overflows a float")
    return value


#: Built once: ``json.loads`` with hooks would build a decoder per call.
_DECODER = json.JSONDecoder(
    object_pairs_hook=_object, parse_constant=_constant, parse_float=_float
)
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)
_SPACED = json.JSONEncoder(sort_keys=True, allow_nan=False)
#: Artefacts carry result cells, which may be non-finite like the
#: result store's (a figure 5 point that never converged is ``inf``).
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2)


def loads(data) -> object:
    """Parse ``str`` or bytes (in any encoding ``json.loads`` detects)."""
    try:
        if isinstance(data, (bytes, bytearray)):
            # an object opening with a key is what detect_encoding calls utf-8
            utf8 = data[:2] == b'{"'
            encoding = "utf-8" if utf8 else json.detect_encoding(data)
            data = data.decode(encoding, "surrogatepass")
        return _DECODER.decode(data)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None


def dumps(obj: object, compact: bool = True) -> str:
    """Sorted-key JSON, NaN and infinities refused; ``compact`` drops the
    separators' spaces (the canonical form), ``compact=False`` keeps the
    ``json.dumps`` default some payloads were always written with."""
    try:
        return (_CANONICAL if compact else _SPACED).encode(obj)
    except ValueError as exc:
        raise ValidationError(f"not JSON-able: {exc}") from None


def pretty(obj: object) -> str:
    """The indented, sorted-key artefact form of ``obj``."""
    return _PRETTY.encode(obj)


def write_pretty(path: str, obj: object) -> None:
    """Write ``obj`` to ``path`` in the artefact form, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pretty(obj) + "\n")


def encode(obj: Any) -> Any:
    """Dataclasses become objects of their fields (led by ``"kind"`` when
    the class has a ``KIND``), tuples lists; mappings are copied."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        kind = getattr(obj, "KIND", None)
        out: Dict[str, object] = {} if kind is None else {"kind": kind}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is not None or f.metadata.get("json") != "omit-none":
                out[f.name] = encode(value)
        return out
    if isinstance(obj, (tuple, list)):
        return [encode(item) for item in obj]
    if isinstance(obj, abc.Mapping):
        return {key: encode(value) for key, value in obj.items()}
    return obj


def decode(cls, payload: object, what: str):
    """Build dataclass ``cls`` from its :func:`encode` form.

    ``what`` names the object in messages (``unknown topology field
    'degre'; ... did you mean 'degree'?``, ``topology n must be an int,
    got str``).  Unlike :func:`decode_value`, a field's JSON type must
    match its annotation: no string or bool for a number, no number for
    a string, and no non-finite number.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"expected a JSON object of {cls.__name__} fields, got {payload!r}"
        )
    hints = get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    names = [f.name for f in fields]
    for key in payload:
        if key not in names:
            _, hint = did_you_mean(str(key), names)
            raise ValidationError(
                f"unknown {what} field {key!r}; supported: "
                f"{', '.join(names)}{hint}"
            )
    values: Dict[str, object] = {}
    for f in fields:
        label = f"{what} {f.name}"
        if f.name in payload:
            value = payload[f.name]
            _check_json_type(label, hints[f.name], value)
            values[f.name] = decode_value(label, hints[f.name], value, f.name)
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise ValidationError(f"missing {what} field {f.name!r}")
    return cls(**values)


_NOUNS = {int: "an int", float: "a number", str: "a string"}


def _check_json_type(label: str, hint, value) -> None:
    base = unwrap_optional(hint)
    noun = _NOUNS.get(base)
    if noun is None or (value is None and base is not hint):
        return
    if base is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok and not math.isfinite(value):
            raise ValidationError(f"{label} must be finite, got {value!r}")
    if not ok:
        raise ValidationError(f"{label} must be {noun}, got {type(value).__name__}")


def decode_value(label: str, hint, value, name: str = ""):
    """Coerce one value to annotation ``hint``: the codec's field walk.

    ``Optional`` admits None; nested dataclasses decode under ``name``;
    ``Tuple[T, ...]`` and ``Tuple[A, B]`` take a list (the latter of
    exactly that length); a union of ``KIND``-tagged dataclasses picks
    its member by ``"kind"``; ``Mapping`` values recurse; scalars go
    through :func:`~repro.util.validation.coerce_scalar`, which also
    reads sweep text such as ``"4"`` for the registries' overrides.
    """
    name = name or label
    base = unwrap_optional(hint)
    if hint is object or hint is Any or (value is None and base is not hint):
        return value
    if dataclasses.is_dataclass(base):
        return decode(base, value, name)
    origin, args = get_origin(base), get_args(base)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{label} must be a JSON list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ValidationError(
                f"{label} entries must hold {len(args)} values, got {list(value)!r}"
            )
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        return tuple(
            decode_value(label, kind, item, name) for kind, item in zip(kinds, value)
        )
    if origin is Union:
        members = {member.KIND: member for member in args}
        if not isinstance(value, dict):
            raise ValidationError(
                f"expected a JSON object for a {name} event, got {value!r}"
            )
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in members:
            raise ValidationError(
                f"unknown {name} event kind {kind!r}; "
                f"choose from {', '.join(members)}"
            )
        fields = {key: item for key, item in value.items() if key != "kind"}
        return decode(members[kind], fields, f"{kind} event")
    if origin in (dict, abc.Mapping):
        if not isinstance(value, dict):
            raise ValidationError(f"{label} must be a JSON object, got {value!r}")
        return {key: decode_value(label, args[1], item) for key, item in value.items()}
    return coerce_scalar(label, base, value)
