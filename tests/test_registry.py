"""Tests for the generic registry (repro.util.registry).

Drives :class:`Registry` directly with a toy spec type: everything the
protocol and experiment registries share — key normalisation, alias
bookkeeping, ``replace``, did-you-mean, lazy plugin discovery and plugin
atomicity — is checked here once; ``test_protocol_registry.py`` and
``test_experiment_registry.py`` keep what is specific to their spec type.
"""

import sys
import textwrap
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.errors import ReproError, ValidationError
from repro.util.registry import Registry, normalise

PLUGIN_ENV = "REPRO_TEST_TOYS"


@dataclass(frozen=True)
class Toy:
    name: str
    aliases: Tuple[str, ...] = ()
    weight: int = 1


class UnknownToyError(ReproError):
    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


def _check(name, spec):
    if spec.weight < 0:
        raise ValidationError(f"toy {name!r} weight must be >= 0")


@pytest.fixture
def toys(monkeypatch):
    monkeypatch.delenv(PLUGIN_ENV, raising=False)
    registry = Registry(
        Toy,
        kind="toy",
        unknown_error=UnknownToyError,
        entry_point_group="repro.test_toys",
        plugin_env=PLUGIN_ENV,
        check=_check,
    )
    registry.register(Toy("robot", aliases=("bot", "tin_man")))
    registry.register(Toy("teddy-bear", aliases=("bear",)))
    registry.register(Toy("kite"))
    return registry


@pytest.fixture
def plugin_dir(tmp_path, monkeypatch):
    """A sys.path directory plugin modules can be written into."""
    monkeypatch.syspath_prepend(str(tmp_path))
    yield tmp_path
    for name in [name for name in sys.modules if name.startswith("toy_")]:
        del sys.modules[name]


def _write_plugin(plugin_dir, module, body):
    prelude = f"from {__name__} import Toy\n"
    (plugin_dir / f"{module}.py").write_text(prelude + textwrap.dedent(body))


class TestResolution:
    def test_normalise(self):
        assert normalise("  Tin_Man ") == "tin-man"

    def test_case_and_underscores_are_insensitive(self, toys):
        for spelling in ("robot", "ROBOT", " Robot ", "tin_man", "TIN-MAN"):
            assert toys.resolve(spelling).name == "robot"
        assert toys.resolve("teddy_bear").name == "teddy-bear"

    def test_spec_instance_passes_through(self, toys):
        stranger = Toy("never-registered")
        assert toys.resolve(stranger) is stranger

    def test_names_and_specs_in_registration_order(self, toys):
        assert toys.names() == ("robot", "teddy-bear", "kite")
        assert [spec.name for spec in toys.specs()] == list(toys.names())

    def test_unknown_name_lists_choices_and_suggests(self, toys):
        with pytest.raises(UnknownToyError) as exc_info:
            toys.resolve("robt")
        assert str(exc_info.value) == (
            "unknown toy 'robt'; choose from robot, teddy-bear, kite"
            " — did you mean 'robot'?"
        )
        assert exc_info.value.suggestion == "robot"

    def test_unknown_name_far_from_everything(self, toys):
        with pytest.raises(UnknownToyError) as exc_info:
            toys.resolve("zzzzqqqq")
        assert exc_info.value.suggestion is None


class TestRegistration:
    def test_register_returns_the_spec(self, toys):
        spec = Toy("yo-yo")
        assert toys.register(spec) is spec
        assert toys.resolve("yo_yo") is spec

    def test_wrong_type_rejected(self, toys):
        with pytest.raises(ValidationError, match="register_toy takes a Toy"):
            toys.register("robot")

    def test_empty_name_rejected(self, toys):
        with pytest.raises(ValidationError, match="toy name must be non-empty"):
            toys.register(Toy("  "))

    def test_check_hook_rejects(self, toys):
        with pytest.raises(ValidationError, match="weight must be >= 0"):
            toys.register(Toy("anvil", weight=-1))
        assert "anvil" not in toys.names()

    def test_duplicate_name_rejected(self, toys):
        with pytest.raises(ValidationError) as exc_info:
            toys.register(Toy("kite"))
        assert str(exc_info.value) == (
            "toy 'kite' is already registered; pass replace=True to override"
        )

    def test_alias_collision_names_the_owner(self, toys):
        with pytest.raises(ValidationError) as exc_info:
            toys.register(Toy("android", aliases=("BOT",)))
        assert str(exc_info.value) == (
            "toy name/alias 'bot' is already registered (by 'robot'); "
            "pass replace=True to override"
        )
        assert "android" not in toys.names()

    def test_replace_swaps_spec_and_aliases(self, toys):
        replacement = toys.register(
            Toy("robot", aliases=("droid",)), replace=True
        )
        assert toys.resolve("robot") is replacement
        assert toys.resolve("droid") is replacement
        with pytest.raises(UnknownToyError):
            toys.resolve("bot")  # the old spec's alias went with it

    def test_replace_keeps_registration_order(self, toys):
        toys.register(Toy("robot", weight=2), replace=True)
        toys.register(toys.resolve("teddy-bear"), replace=True)
        assert toys.names() == ("robot", "teddy-bear", "kite")

    def test_replace_with_stolen_name_evicts_the_old_owner(self, toys):
        thief = toys.register(Toy("drone", aliases=("kite",)), replace=True)
        assert toys.resolve("kite") is thief
        assert toys.names() == ("robot", "teddy-bear", "drone")  # no orphan

    def test_replace_with_stolen_alias_evicts_the_whole_owner(self, toys):
        toys.register(Toy("grizzly", aliases=("bear",)), replace=True)
        assert toys.names() == ("robot", "kite", "grizzly")
        with pytest.raises(UnknownToyError):
            toys.resolve("teddy-bear")

    def test_unregister_by_alias_removes_every_key(self, toys):
        toys.unregister("Tin_Man")
        assert toys.names() == ("teddy-bear", "kite")
        for key in ("robot", "bot", "tin-man"):
            with pytest.raises(UnknownToyError):
                toys.resolve(key)

    def test_unregister_unknown(self, toys):
        with pytest.raises(UnknownToyError, match="unknown toy 'nope'"):
            toys.unregister("nope")
        toys.unregister("nope", missing_ok=True)


class TestDiscovery:
    def test_env_plugin_spec_callable_and_list(self, toys, plugin_dir,
                                               monkeypatch):
        _write_plugin(
            plugin_dir,
            "toy_plugins",
            """
            SPEC = Toy("ball")
            def make():
                return Toy("hoop")
            SPECS = [Toy("top"), Toy("jacks", aliases=("knucklebones",))]
            """,
        )
        monkeypatch.setenv(
            PLUGIN_ENV,
            "toy_plugins:SPEC, toy_plugins:make,,toy_plugins:SPECS",
        )
        assert toys.discover() == ["ball", "hoop", "top", "jacks"]
        assert toys.names()[3:] == ("ball", "hoop", "top", "jacks")
        assert toys.resolve("knucklebones").name == "jacks"

    def test_entry_point_plugin(self, toys, plugin_dir):
        _write_plugin(plugin_dir, "toy_entry", 'SPEC = Toy("marble")')
        dist_info = plugin_dir / "toy_entry-0.1.dist-info"
        dist_info.mkdir()
        (dist_info / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: toy-entry\nVersion: 0.1\n"
        )
        (dist_info / "entry_points.txt").write_text(
            "[repro.test_toys]\nmarble = toy_entry:SPEC\n"
        )
        assert toys.discover() == ["marble"]

    def test_lazy_once_then_again_with_force(self, toys, plugin_dir,
                                             monkeypatch):
        _write_plugin(plugin_dir, "toy_lazy", 'SPEC = Toy("ball")')
        monkeypatch.setenv(PLUGIN_ENV, "toy_lazy:SPEC")
        assert toys.resolve("robot").name == "robot"  # a hit: no discovery
        assert "ball" not in toys._specs
        assert toys.resolve("ball").name == "ball"  # a miss discovers
        toys.unregister("ball")
        assert toys.discover() == []  # once per process...
        assert "ball" not in toys.names()
        assert toys.discover(force=True) == ["ball"]  # ...unless forced
        assert toys.discover(force=True) == []  # already present: kept

    def test_listing_triggers_discovery(self, toys, plugin_dir, monkeypatch):
        _write_plugin(plugin_dir, "toy_listed", 'SPEC = Toy("ball")')
        monkeypatch.setenv(PLUGIN_ENV, "toy_listed:SPEC")
        assert "ball" in toys.names()

    def test_registered_name_wins_over_plugin(self, toys, plugin_dir,
                                              monkeypatch):
        _write_plugin(plugin_dir, "toy_shadow", 'SPEC = Toy("kite", weight=9)')
        monkeypatch.setenv(PLUGIN_ENV, "toy_shadow:SPEC")
        assert toys.discover() == []
        assert toys.resolve("kite").weight == 1

    @pytest.mark.parametrize(
        "item, body, reason",
        [
            ("no_such_toy_module:SPEC", None, "No module named"),
            ("toy_broken", "SPEC = 1", "must look like 'module:attr'"),
            ("toy_broken:MISSING", "SPEC = 1", "has no attribute 'MISSING'"),
            ("toy_broken:SPEC", "raise RuntimeError('boom at import')",
             "boom at import"),
            ("toy_broken:SPEC", "SPEC = 1",
             "plugin REPRO_TEST_TOYS=toy_broken:SPEC produced int, "
             "expected Toy"),
            ("toy_broken:SPEC", 'SPEC = Toy("anvil", weight=-1)',
             "weight must be >= 0"),
        ],
    )
    def test_broken_plugin_warns_and_is_skipped(self, toys, plugin_dir,
                                                monkeypatch, item, body,
                                                reason):
        if body is not None:
            _write_plugin(plugin_dir, "toy_broken", body)
        _write_plugin(plugin_dir, "toy_fine", 'SPEC = Toy("ball")')
        monkeypatch.setenv(PLUGIN_ENV, f"{item},toy_fine:SPEC")
        with pytest.warns(UserWarning) as caught:
            registered = toys.discover()
        (warning,) = caught
        message = str(warning.message)
        assert message.startswith(
            f"skipping toy plugin {item!r} from {PLUGIN_ENV}: "
        )
        assert reason in message
        assert registered == ["ball"]  # the next plugin still loads
        assert toys.names() == ("robot", "teddy-bear", "kite", "ball")

    @pytest.mark.parametrize(
        "second, reason",
        [
            ('Toy("hoop", aliases=("bot",))',
             "toy name/alias 'bot' is already registered (by 'robot')"),
            ('Toy("hoop", aliases=("ball",))',
             "toy name/alias 'ball' is already registered (by 'ball')"),
            ('Toy("hoop", weight=-1)', "weight must be >= 0"),
            ("object()", "produced object, expected Toy"),
        ],
    )
    def test_plugin_registers_all_of_its_specs_or_none(
        self, toys, plugin_dir, monkeypatch, second, reason
    ):
        _write_plugin(
            plugin_dir, "toy_pair", f'SPECS = [Toy("ball"), {second}]'
        )
        monkeypatch.setenv(PLUGIN_ENV, "toy_pair:SPECS")
        with pytest.warns(UserWarning, match="skipping toy plugin") as caught:
            assert toys.discover() == []
        assert reason in str(caught[0].message)
        assert toys.names() == ("robot", "teddy-bear", "kite")
        for key in ("ball", "hoop"):
            with pytest.raises(UnknownToyError):
                toys.resolve(key)
