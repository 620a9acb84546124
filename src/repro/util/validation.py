"""Argument-validation helpers shared across the library.

All helpers raise :class:`repro.errors.ValidationError` with a message that
names the offending parameter, so call sites stay one-liners::

    check_probability(loss, "loss")
"""

from __future__ import annotations

import math

from repro.errors import ValidationError


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1] and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_open_probability(value: float, name: str) -> float:
    """Validate a probability strictly inside (0, 1)."""
    check_probability(value, name)
    if value in (0.0, 1.0):
        raise ValidationError(f"{name} must be strictly in (0, 1), got {value!r}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    """Validate a strictly positive finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    if math.isnan(value) or math.isinf(value) or value <= 0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate a finite number >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    if math.isnan(value) or math.isinf(value) or value < 0:
        raise ValidationError(f"{name} must be >= 0 and finite, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str) -> int:
    """Validate a strictly positive integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Validate an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def unwrap_optional(hint):
    """Strip ``Optional[...]`` from a type annotation.

    Returns the inner type of a one-armed ``Optional[T]`` — both the
    ``typing.Optional`` spelling and the PEP 604 ``T | None`` one; any
    other annotation (plain types, multi-arm unions) passes through
    unchanged.  The single unwrap path shared by the protocol and
    experiment registries' coercion and type-naming helpers.
    """
    import types
    from typing import Union, get_args, get_origin

    origin = get_origin(hint)
    if origin is Union or origin is getattr(types, "UnionType", None):
        args = [a for a in get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return hint


def coerce_scalar(label: str, hint, value):
    """Coerce a sweep/override value to a typed parameter field's type.

    ``hint`` is a (possibly ``Optional``) scalar type annotation —
    ``bool``/``int``/``float``/``str``.  Shared by the protocol and
    experiment registries so ``--sweep`` values arriving as strings or
    floats land correctly typed, with one error-message shape:
    ``"{label} takes integer values, got '2.5'"``.
    """
    if value is None:
        return None
    base = unwrap_optional(hint)

    def bad(expected: str) -> ValidationError:
        return ValidationError(
            f"{label} takes {expected} values, got {value!r}"
        )

    if base is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise bad("boolean (true/false/0/1)")
    if base is int:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise bad("integer") from None
        if not math.isfinite(number) or number != int(number):
            raise bad("integer")
        return int(number)
    if base is float:
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            raise bad("numeric") from None
    if base is str:
        return str(value)
    return value
