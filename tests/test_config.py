"""Drift gate: the engine configuration, the CLI and the README agree.

Every field of :class:`~repro.config.EngineConfig` with a scalar type is
settable through the CLI's one generic path (``--set NAME=VALUE``), and
the README's configuration table lists exactly the fields there are.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro import cli
from repro.config import STRATEGIES, EngineConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _other_value(field: dataclasses.Field) -> tuple[object, str] | None:
    """A valid non-default value of a scalar field and its CLI spelling
    (None: the field is not a scalar)."""
    default = field.default
    if field.type == "bool":
        return (not default), str(not default).lower()
    if field.type == "int":
        return default + 1, str(default + 1)
    if field.type == "float | None":
        return 2.5, "2.5"
    if field.type == "str | None":
        return STRATEGIES[-1], STRATEGIES[-1]
    return None


def test_every_scalar_field_is_settable_from_the_cli():
    values = {field.name: _other_value(field) for field in dataclasses.fields(EngineConfig)}
    scalars = {name: value for name, value in values.items() if value is not None}
    assert set(scalars) == set(values) - {"continuous"}
    for name, (value, text) in scalars.items():
        assert getattr(EngineConfig(), name) != value, name
        args = cli.build_parser().parse_args(
            ["--customers", "1", "--set", f"{name}={text}", "explain", "1"])
        platform = cli._build(args)
        try:
            assert getattr(platform.config, name) == value, name
        finally:
            platform.close()


def test_readme_table_lists_exactly_the_fields():
    text = README.read_text()
    section = text[text.index("### Configuration"):]
    section = section[:section.index("\n#", 1)]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert listed == [field.name for field in dataclasses.fields(EngineConfig)]
