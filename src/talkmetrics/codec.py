"""One JSON codec for the package's frozen result dataclasses.

Encoding walks ``dataclasses.fields`` in declaration order, so a class's
field order is its JSON key order: enums become their values, tuples become
lists, nested dataclasses and dicts recurse. What to do with a value is
worked out once per type and cached. ``json_chunks`` is the one encoder:
it writes the JSON text of that encoding straight from the objects, in
pieces, so no encoded copy of a large result is ever built, and
``Codec.to_dict`` parses that text back. ``decode`` reads the declared
types back through ``typing.get_type_hints``, checking each value's type;
it understands ``X | None``, ``tuple[T, ...]``, fixed-length tuples and
``dict[str, T]``, and lets field defaults fill missing keys. ``read_json``
is the one reader of JSON input files, which must be strict RFC 8259 JSON.
"""

from __future__ import annotations

import json
import math
import reprlib
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, TypeVar

_T = TypeVar("_T", bound="Codec")


class Codec:
    """Mixin giving a dataclass ``to_dict`` and ``from_dict``."""

    def to_dict(self) -> dict:
        return json.loads("".join(json_chunks(self)))

    @classmethod
    def from_dict(cls: type[_T], data: Mapping) -> _T:
        return decode(cls, data)


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


_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check(fits: bool, path: str, kind: str, value: Any) -> None:
    if not fits:
        raise ValueError(f"{path or 'the value'} must be {kind}: {reprlib.repr(value)}")


def decode(hint: Any, value: Any, path: str = "") -> Any:
    """``value``, as ``json`` reads it, built as the declared type ``hint``:
    ``bool``, ``int`` and ``str`` by exact type, a ``float`` from an int (kept
    as it is) or a float, a tuple from an array, a dataclass or dict from an
    object, whose keys must all be fields of a dataclass. A value that does
    not fit raises ValueError naming its dotted ``path``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else decode(inner, value, path)
    if origin is tuple:
        _check(isinstance(value, list), path, "an array", value)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        _check(len(value) == len(args), path, f"an array of {len(args)} items", value)
        items = enumerate(zip(args, value))
        return tuple(decode(arg, item, f"{path}[{i}]") for i, (arg, item) in items)
    if hint is dict or origin is dict or is_dataclass(hint):
        _check(isinstance(value, dict), path, "an object", value)
    if origin is dict:
        return {key: decode(args[1], item, f"{path}[{key!r}]") for key, item in value.items()}
    if is_dataclass(hint):
        hints, kwargs, prefix = _hints(hint), {}, f"{path}." if path else ""
        for f in fields(hint):
            if f.name in value:
                kwargs[f.name] = decode(hints[f.name], value[f.name], prefix + f.name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing key {prefix + f.name!r}")
        for key in value:
            if key not in kwargs:
                raise ValueError(f"unknown key {prefix + key!r}")
        return hint(**kwargs)
    if isinstance(hint, type) and issubclass(hint, Enum):
        values = [member.value for member in hint]
        _check(value in values, path, "one of " + ", ".join(map(repr, values)), value)
        return hint(value)
    if hint in _KINDS:
        fits = type(value) is hint or hint is float and type(value) is int
        _check(fits, path, _KINDS[hint], value)
    return value


def _finite_number(text: str) -> float:
    """A JSON number's value, which RFC 8259 requires to be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


# one decoder for every input file; ``json`` builds one per call when given options
_DECODER = json.JSONDecoder(parse_float=_finite_number, parse_constant=_finite_number)


def read_json(path: Path | str, error: type[Exception]) -> Any:
    """The strict JSON value in the UTF-8 file at ``path``. A file that does
    not decode (bad JSON or UTF-8, an integer past the interpreter's digit
    limit, NaN or an infinity) raises ``error("{path}: invalid JSON: ...")``;
    an OSError passes through."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
            if text.startswith("\ufeff"):  # worded as json.loads words it
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
            return _DECODER.decode(text)
        except ValueError as exc:
            detail = getattr(exc, "msg", exc)  # a JSONDecodeError's, without the position
            raise error(f"{path}: invalid JSON: {detail}") from None


@cache
def _getter(cls: type) -> Callable[[Any], tuple]:
    """Reads a dataclass instance's field values, in field order, as a tuple."""
    names = _plan(cls)
    if len(names) > 1:
        return attrgetter(*names)
    return lambda value: tuple(getattr(value, name) for name in names)


def field_values(value: Any) -> list:
    """A dataclass instance's field values, in field order, each enum as its
    value: one table row of a class whose fields are scalars or enums."""
    return [item.value if isinstance(item, Enum) else item for item in _getter(type(value))(value)]


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    if text in ("nan", "inf", "-inf"):  # RFC 8259 has no NaN or Infinity
        raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    return text


def _enum_text(member: Enum) -> str | None:
    return _scalar(member.value)


def _unwritable(value: Any) -> str:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@cache
def _scalar_writer(cls: type) -> Callable[[Any], str | None] | None:
    """How ``json`` writes a value of ``cls`` once encoded, checked in its
    order; None for the values the plan walks into."""
    plan = _plan(cls)
    if plan is _ENUM:
        return _enum_text
    if plan is not _LEAF:
        return None
    if issubclass(cls, str):
        return encode_basestring_ascii
    if cls is type(None):
        return lambda value: "null"
    if cls is bool:
        return lambda value: "true" if value else "false"
    if issubclass(cls, int):
        return int.__repr__
    if issubclass(cls, float):
        return _float_text
    return _unwritable


def _scalar(value: Any) -> str | None:
    """The JSON text of a leaf, or of an enum whose value is one; None for
    anything else."""
    write = _scalar_writer(type(value))
    return None if write is None else write(value)


def _key_text(key: Any) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key) + ": "


@cache
def _field_keys(cls: type) -> tuple[str, ...]:
    """A dataclass's JSON member names, each followed by its colon."""
    return tuple(_key_text(name) for name in _plan(cls))


def json_chunks(value: Any) -> Iterator[str]:
    """The encoding of ``value`` as ``json.dump(..., indent=2)`` writes it, in pieces.

    The pieces are read from ``value`` through the encode plan, so no
    encoded copy is built: a dataclass or container whose values are all
    scalars comes out as one string, anything larger as a piece per member.
    Like ``json`` with ``allow_nan=False``, a NaN or infinite float raises
    ValueError, and a key that is not a string, or a leaf that is not a
    string, number, bool or None, raises TypeError.
    """
    return _chunks(value, "\n")


def _chunks(value: Any, newline: str) -> Iterator[str]:
    text = _scalar(value)
    if text is not None:
        yield text
        return
    cls = type(value)
    plan = _plan(cls)
    if plan is _ENUM:
        yield from _chunks(value.value, newline)
        return
    if plan is _SEQUENCE:
        opening, closing, keys, items = "[", "]", repeat(""), value
    elif plan is _MAPPING:
        opening, closing = "{", "}"
        keys, items = [_key_text(key) for key in value], value.values()
    else:
        opening, closing, keys, items = "{", "}", _field_keys(cls), _getter(cls)(value)
    if not items:
        yield opening + closing
        return
    inner = newline + "  "
    # scalar members join the text around them; the rest recurse
    pending, separator = "", opening + inner
    for key, item in zip(keys, items):
        text = _scalar(item)
        if text is None:
            yield pending + separator + key
            pending = ""
            yield from _chunks(item, inner)
        else:
            pending += separator + key + text
        separator = "," + inner
    yield pending + newline + closing
