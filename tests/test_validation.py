"""Unit tests for validation helpers."""

import math

from dataclasses import dataclass

import pytest

from repro.errors import ValidationError
from repro.util import jsonio
from repro.util.validation import (
    check_non_negative,
    check_non_negative_int,
    check_open_probability,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1])
    def test_accepts(self, value):
        assert check_probability(value, "p") == float(value)

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("nan"), "0.5", None, True])
    def test_rejects(self, value):
        with pytest.raises(ValidationError):
            check_probability(value, "p")

    def test_message_names_parameter(self):
        with pytest.raises(ValidationError, match="loss_rate"):
            check_probability(2.0, "loss_rate")


class TestCheckOpenProbability:
    def test_rejects_bounds(self):
        with pytest.raises(ValidationError):
            check_open_probability(0.0, "p")
        with pytest.raises(ValidationError):
            check_open_probability(1.0, "p")

    def test_accepts_interior(self):
        assert check_open_probability(0.999, "p") == 0.999


class TestNumericChecks:
    def test_positive(self):
        assert check_positive(0.5, "x") == 0.5
        for bad in (0, -1, math.inf, math.nan, "x", False):
            with pytest.raises(ValidationError):
                check_positive(bad, "x")

    def test_non_negative(self):
        assert check_non_negative(0, "x") == 0.0
        with pytest.raises(ValidationError):
            check_non_negative(-0.001, "x")
        with pytest.raises(ValidationError):
            check_non_negative(math.inf, "x")

    def test_positive_int(self):
        assert check_positive_int(3, "n") == 3
        for bad in (0, -2, 1.5, True):
            with pytest.raises(ValidationError):
                check_positive_int(bad, "n")

    def test_non_negative_int(self):
        assert check_non_negative_int(0, "n") == 0
        for bad in (-1, 0.0, True):
            with pytest.raises(ValidationError):
                check_non_negative_int(bad, "n")


@dataclass
class _Spec:
    kind: str
    size: int = 4


class TestDecodeKeySet:
    """The key-set half of :func:`repro.util.jsonio.decode`."""

    def test_builds_the_dataclass(self):
        payload = {"kind": "ring", "size": 8}
        assert jsonio.decode(_Spec, payload, "spec") == _Spec("ring", 8)

    def test_defaults_may_be_omitted(self):
        assert jsonio.decode(_Spec, {"kind": "ring"}, "spec") == _Spec("ring")

    @pytest.mark.parametrize("payload", [["kind"], "ring", None, 3])
    def test_rejects_non_object(self, payload):
        with pytest.raises(ValidationError, match="expected a JSON object of _Spec"):
            jsonio.decode(_Spec, payload, "spec")

    def test_unknown_key_names_supported_and_closest(self):
        with pytest.raises(ValidationError) as info:
            jsonio.decode(_Spec, {"kind": "ring", "sise": 8}, "spec")
        message = str(info.value)
        assert "unknown spec field 'sise'" in message
        assert "supported: kind, size" in message
        assert "did you mean 'size'" in message

    def test_non_string_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown spec field 1"):
            jsonio.decode(_Spec, {"kind": "ring", 1: 8}, "spec")

    def test_missing_required_field_named(self):
        with pytest.raises(ValidationError, match="missing spec field 'kind'"):
            jsonio.decode(_Spec, {"size": 8}, "spec")
