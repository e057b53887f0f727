"""One typed schema for every config surface: the run config, the model,
optimizer and loss-weight sections, the synthetic spec, the dataset
manifest and a checkpoint's config echo.

Each of these is a dataclass whose annotations are the schema: `int`,
`float`, `str`, `Path`, `X | None`, `list[X]` and nested dataclasses.
`check_fields` holds a constructed instance to them; `from_dict` builds one
from parsed JSON. Both raise ConfigError naming the dotted key path of the
offending value. Neither accepts a bool or a string for a number; an int
passes for a float, and `from_dict` stores it as float(x).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path

from .errors import ConfigError, DataError

_NONE = type(None)
_NAMES = {int: "an integer", float: "a number", str: "a string"}


@functools.cache
def _hints(cls: type) -> dict[str, typing.Any]:
    return typing.get_type_hints(cls)


def _strip_none(tp):
    """`X` for an `X | None` annotation, the annotation itself otherwise."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not _NONE]
    return tp


def _typed(value, tp, path: str, build: bool):
    """`value` checked against annotation `tp`. With `build`, JSON objects
    become nested dataclasses and ints for floats become floats."""
    if value is None and _NONE in typing.get_args(tp):
        return None
    tp = _strip_none(tp)
    if typing.get_origin(tp) is list:
        if isinstance(value, list):
            (item,) = typing.get_args(tp)
            return [_typed(v, item, f"{path}[{i}]", build) for i, v in enumerate(value)]
        expected = "a list"
    elif dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        if build:
            return from_dict(tp, value, path)
        expected = f"a {tp.__name__} object"
    else:
        allowed = (int, float) if tp is float else tp
        if isinstance(value, allowed) and (tp is bool or not isinstance(value, bool)):
            return float(value) if build and tp is float else value
        expected = _NAMES.get(tp, f"a {tp.__name__}")
    raise ConfigError(f"{path} must be {expected}, got {value!r}")


def check_fields(obj) -> None:
    """ConfigError unless every init field of the dataclass instance `obj`
    holds a value of its annotated type."""
    hints = _hints(type(obj))
    for f in dataclasses.fields(obj):
        if f.init:
            _typed(getattr(obj, f.name), hints[f.name], f"{type(obj).__name__}.{f.name}", build=False)


def from_dict(cls: type, raw, context: str, **fixed):
    """An instance of the dataclass `cls` from parsed JSON `raw`, with the
    fields in `fixed` set by the caller (`raw` may not name them); `context`
    prefixes every key path in the error messages."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init and f.name not in fixed}
    unknown = [f"{context}.{key}" for key in raw if key not in fields]
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    missing = [
        f"{context}.{name}"
        for name, f in fields.items()
        if name not in raw and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"missing required keys {missing}")
    hints = _hints(cls)
    typed = {key: _typed(value, hints[key], f"{context}.{key}", build=True) for key, value in raw.items()}
    return cls(**fixed, **typed)


def field_type(cls: type, path: list[str]):
    """The annotation a key path reaches through nested dataclasses, with
    `| None` dropped; None when the path names no field."""
    tp = cls
    for key in path:
        if not dataclasses.is_dataclass(tp) or key not in _hints(tp):
            return None
        tp = _strip_none(_hints(tp)[key])
    return tp


def read_json(path: str | Path, what: str):
    """Parsed JSON of a config file: unreadable is a data error, malformed
    a config error."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
