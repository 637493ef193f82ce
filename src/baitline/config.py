"""Run configuration: model defaults, profiles, INI files, and snapshots.

Precedence, lowest to highest: family defaults, profile overrides, config
file section, command-line flags.  Every command writes its resolved
configuration next to its artifacts so runs are auditable.
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

from .registry import FAMILIES

SEED_ENV_VAR = "BAITLINE_SEED"

MODEL_FAMILIES = tuple(FAMILIES)

PROFILES = ("full", "desk")


def build_model_config(
    family: str,
    profile: str = "full",
    file_overrides: dict | None = None,
    flag_overrides: dict | None = None,
    config_file=None,
):
    """Resolve one model family's config dataclass through the precedence chain;
    ``config_file`` names the file ``file_overrides`` came from, for messages."""
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    cls = FAMILIES[family].config_type
    values = {f.name: f.default for f in dataclasses.fields(cls)}
    if profile == "desk":
        values.update(FAMILIES[family].desk)
    for overrides in (file_overrides or {}, flag_overrides or {}):
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in values:
                raise ValueError(f"unknown {family} option {key!r}")
            try:
                values[key] = _coerce(value, values[key])
            except ValueError:
                raise ValueError(f"{config_file}: [{family}] {key} = {value!r} is not "
                                 f"a valid {type(values[key]).__name__}") from None
    return cls(**values)


def _coerce(value, template):
    if isinstance(value, str):
        if isinstance(template, bool):
            return value.lower() in ("1", "true", "yes", "on")
        if isinstance(template, int):
            return int(value)
        if isinstance(template, float):
            return float(value)
    return value


def read_config_file(path) -> dict[str, dict[str, str]]:
    """Read an INI config; returns {section: {key: raw string value}}."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # option names keep their case: [svm] C
    parser.read(path, encoding="utf-8")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def write_snapshot(path, sections: dict[str, dict]) -> None:
    """Write the resolved configuration as an INI snapshot."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, values in sections.items():
        parser[section] = {k: str(v) for k, v in values.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
