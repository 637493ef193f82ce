"""Run configuration: model defaults, profiles, INI files, and snapshots.

Precedence, lowest to highest: family defaults, profile overrides, config
file section, command-line flags.  Every command writes its resolved
configuration next to its artifacts so runs are auditable.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from pathlib import Path

from .registry import FAMILIES
from .tensor.checkpoint import MODEL_HEADER, check_header, numbered_lines, read_json, require_same_names

SEED_ENV_VAR = "BAITLINE_SEED"

MODEL_FAMILIES = tuple(FAMILIES)

PROFILES = ("full", "desk")

# Options with a bounded range, whatever the family: (test, what the value must be)
_RANGES = {
    **dict.fromkeys(("epochs", "seed"), (lambda v: v >= 0, ">= 0")),
    **dict.fromkeys(
        ("n_estimators", "batch_size", "n_layers", "title_vocab_size", "content_vocab_size",
         "vocab_size", "title_max_len", "content_max_len", "max_len", "embed_dim",
         "title_units", "content_units", "dense1", "dense2", "dense", "out_dim", "encoder_dim"),
        (lambda v: v >= 1, ">= 1"),
    ),
    **dict.fromkeys(("C", "learning_rate"), (lambda v: 0.0 < v < math.inf, "finite and > 0")),
    "dropout_rate": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "weight_decay": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    **dict.fromkeys(("margin", "threshold"), (math.isfinite, "finite")),
    "max_features": (lambda v: v in ("sqrt", "all"), "sqrt or all"),
}


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
    for from_file, overrides in ((True, file_overrides or {}), (False, flag_overrides or {})):
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in values:
                raise ValueError(f"unknown {family} option {key!r}")
            where = f"{config_file}: [{family}] {key} = {value!r}" if from_file else f"--{key} {value}"
            values[key] = _checked(where, key, value, values[key])
    return cls(**values)


def read_model(path) -> dict:
    """The model container at ``path``: the header of this format and version,
    a ``losses`` list of numbers, and exactly the family's ``fields`` besides.
    Its ``config`` object becomes the family's config: exactly the family's
    keys, each coerced and range-checked like an INI value.  A defect raises
    ValueError naming the file."""
    payload = read_json(path)
    check_header(path, "model container", payload, MODEL_HEADER)
    if not isinstance(payload.get("config"), dict):
        raise ValueError(f"{path}: field 'config' is not an object")
    losses = payload.get("losses")
    if not (type(losses) is list and all(type(v) in (int, float) for v in losses)):
        raise ValueError(f"{path}: field 'losses' is not a list of numbers")
    if payload.get("family") not in MODEL_FAMILIES:
        raise ValueError(f"{path}: unknown model family {payload.get('family')!r}")
    family = FAMILIES[payload["family"]]
    fields = dataclasses.fields(family.config_type)
    stored = payload["config"]
    require_same_names(path, "config key", {f.name for f in fields}, set(stored))
    payload["config"] = family.config_type(**{
        f.name: _checked(f"{path}: config {f.name} = {stored[f.name]!r}", f.name,
                         stored[f.name], f.default)
        for f in fields
    })
    require_same_names(path, "field", {*MODEL_HEADER, "family", "config", "losses", *family.fields},
                       set(payload))
    return payload


def seed_from_env() -> int:
    """The default seed: ``BAITLINE_SEED``, or 0 when it is unset."""
    raw = os.environ.get(SEED_ENV_VAR, "0")
    return _checked(f"{SEED_ENV_VAR}={raw!r}", "seed", raw, 0)


def _checked(where: str, key: str, value, template):
    """``value`` coerced to ``template``'s type and range-checked; errors
    begin with ``where``, the place the value came from."""
    try:
        value = _coerce(value, template)
    except ValueError:
        kind = "str" if template is None else type(template).__name__
        raise ValueError(f"{where} is not a valid {kind}") from None
    if key in _RANGES and not _RANGES[key][0](value):
        raise ValueError(f"{where} is out of range: {key} must be {_RANGES[key][1]}")
    return value


def _coerce(value, template):
    """``value`` as ``template``'s type: a string is converted, anything else
    must have that type (an int passes for a float; ``None`` takes a string)."""
    if template is None:
        kinds = (str, type(None))
    elif type(template) is float:
        kinds = (int, float)
    else:
        kinds = (type(template),)
    if isinstance(value, str) and str not in kinds:
        return type(template)(value)
    if type(value) not in kinds:
        raise ValueError(value)
    return float(value) if type(template) is float else value


# What a line the INI parser rejects does wrong, by the parser's error type
_INI_DEFECTS = {
    configparser.MissingSectionHeaderError: "an option above the first [section] header",
    configparser.DuplicateSectionError: "section [{exc.section}] repeats",
    configparser.DuplicateOptionError: "option {exc.option!r} repeats in section [{exc.section}]",
}


def read_config_file(path) -> dict[str, dict[str, str]]:
    """Read an INI config; returns {section: {key: raw string value}}.  A
    line the parser rejects raises ValueError naming the file and the line."""
    parser = configparser.ConfigParser(interpolation=None)  # a "%" reads literally
    parser.optionxform = str  # option names keep their case: [svm] C
    try:
        parser.read_file((line for _, line in numbered_lines(path)), source=str(path))
    except configparser.Error as exc:  # a ParsingError lists its lines; the others carry one
        line_no = getattr(exc, "lineno", None) or exc.errors[0][0]
        defect = _INI_DEFECTS.get(type(exc), "neither a [section] header nor an option")
        raise ValueError(f"{path}:{line_no}: {defect.format(exc=exc)}") from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def write_snapshot(path, sections: dict[str, dict]) -> None:
    """Write the resolved configuration as an INI snapshot, leaving out options
    set to ``None``, their default, which an INI file would read as a string."""
    parser = configparser.ConfigParser(interpolation=None)  # a "%" is written as it is
    parser.optionxform = str
    for section, values in sections.items():
        parser[section] = {k: str(v) for k, v in values.items() if v is not None}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
