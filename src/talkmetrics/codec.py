"""One JSON codec for the package's frozen result dataclasses.

Encoding walks ``dataclasses.fields`` in declaration order, so a class's
field order is its JSON key order: enums become their values, tuples become
lists, nested dataclasses and dicts recurse. What to do with a value is
worked out once per type and cached. Decoding reads the declared
types back through ``typing.get_type_hints``; it understands ``X | None``,
``tuple[T, ...]``, fixed-length tuples and ``dict[str, T]``, and lets field
defaults fill missing keys. Malformed input raises KeyError, TypeError or
ValueError.
"""

from __future__ import annotations

import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from typing import Any, Mapping, TypeVar

_T = TypeVar("_T", bound="Codec")


class Codec:
    """Mixin giving a dataclass ``to_dict`` and ``from_dict``."""

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls: type[_T], data: Mapping) -> _T:
        return _decode(cls, data)


@cache
def _hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


_ENUM, _SEQUENCE, _MAPPING, _LEAF = "enum", "sequence", "mapping", "leaf"


@cache
def _plan(cls: type) -> tuple[str, ...] | str:
    """How values of ``cls`` encode: a dataclass's field names, else one of
    the markers. The checks run in this order, so a dataclass wins over a
    base class and a ``str``-mixin enum encodes as its value."""
    if is_dataclass(cls):
        return tuple(f.name for f in fields(cls))
    if issubclass(cls, Enum):
        return _ENUM
    if issubclass(cls, (tuple, list)):
        return _SEQUENCE
    if issubclass(cls, dict):
        return _MAPPING
    return _LEAF


def _encode(value: Any) -> Any:
    plan = _plan(type(value))
    if plan is _LEAF:
        return value
    if plan is _SEQUENCE:
        return [_encode(item) for item in value]
    if plan is _MAPPING:
        return {key: _encode(item) for key, item in value.items()}
    if plan is _ENUM:
        return value.value
    return {name: _encode(getattr(value, name)) for name in plan}


def _decode(hint: Any, value: Any) -> Any:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], item) for item in value)
        return tuple(_decode(arg, item) for arg, item in zip(args, value, strict=True))
    if origin is dict:
        return {key: _decode(args[1], item) for key, item in value.items()}
    if is_dataclass(hint):
        hints = _hints(hint)
        return hint(
            **{
                f.name: _decode(hints[f.name], value[f.name])
                for f in fields(hint)
                if f.name in value or (f.default is MISSING and f.default_factory is MISSING)
            }
        )
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    return value
