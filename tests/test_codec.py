"""The JSON codec: the cached encode plan gives what the plain recursive walk
gives, for every result class, results survive a round trip, and the
streaming writer writes exactly what ``json.dump(..., allow_nan=False)``
writes, refusing NaN and infinities as it does."""

import json
import math
import re
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum, IntEnum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.batch import PipelineResult, write_json
from talkmetrics.codec import _hints, decode, json_chunks
from talkmetrics.transcript import SpeakerRole


def reference_encode(value: Any) -> Any:
    """The encoder as first written: one ``is_dataclass``/``isinstance``
    chain per value."""
    if is_dataclass(value):
        return {f.name: reference_encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [reference_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: reference_encode(item) for key, item in value.items()}
    return value


def result_classes() -> list[type]:
    """``PipelineResult``, this module's ``Whole`` and ``Heavier``, and every
    record that their declared types reach."""
    found, todo = [], [PipelineResult, Whole, Heavier]
    while todo:
        hint = todo.pop()
        todo += typing.get_args(hint)
        if is_dataclass(hint) and hint not in found:
            found.append(hint)
            todo += _hints(hint).values()
    return found


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(max_size=8)
json_leaves = st.none() | st.booleans() | st.integers() | finite | names


def free_values(native: bool) -> st.SearchStrategy:
    """Contents of an untyped ``dict`` field. With ``native`` only what JSON
    gives back (lists, dicts, scalars); otherwise also tuples and roles."""
    leaves = json_leaves if native else json_leaves | st.sampled_from(SpeakerRole)

    def extend(inner):
        sequences = st.lists(inner, max_size=3)
        if not native:
            sequences |= st.lists(inner, max_size=3).map(tuple)
        return sequences | st.dictionaries(names, inner, max_size=3)

    return st.recursive(leaves, extend, max_leaves=8)


def for_hint(hint: Any, native: bool) -> st.SearchStrategy:
    """Values of a declared field type, in the grammar the decoder reads."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return st.none() | for_hint(inner, native)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(for_hint(args[0], native), max_size=3).map(tuple)
        return st.tuples(*(for_hint(arg, native) for arg in args))
    if origin is dict:
        return st.dictionaries(names, for_hint(args[1], native), max_size=3)
    if hint is dict:
        return st.dictionaries(names, free_values(native), max_size=3)
    if is_dataclass(hint):
        return st.builds(
            hint, **{name: for_hint(field_hint, native) for name, field_hint in _hints(hint).items()}
        )
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(hint)
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(min_value=0, max_value=10**6)
    if hint is float:
        return finite
    if hint is str:
        return names
    raise AssertionError(f"no strategy for {hint!r}")


@dataclass(frozen=True)
class Part:
    label: str
    weight: float | None = None


class Mixed(str, Enum):
    """A ``str``-mixin enum: it must encode as its value, not as a string."""

    LOUD = "loud"


@dataclass(frozen=True)
class Whole:
    parts: tuple[Part, ...]
    mood: Mixed
    extra: dict


@dataclass(frozen=True)
class Heavier(Part):
    ballast: int = 0


def test_every_result_class_is_covered():
    names_found = {cls.__name__ for cls in result_classes()}
    assert {
        "EntryError",
        "PooledRole",
        "PooledSource",
        "CorpusCounts",
        "PipelineResult",
        "FeatureSummary",
        "ConfusionMatrix",
        "MetricSet",
        "RecordingReliability",
        "IccEntry",
        "ReliabilityReport",
        "Part",
        "Whole",
        "Heavier",
    } == names_found


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_encoding_matches_reference(data):
    for cls in result_classes():
        value = data.draw(for_hint(cls, native=False), label=cls.__name__)
        encoded = syn.encoded(value)
        assert encoded == reference_encode(value)
        assert json.dumps(encoded) == json.dumps(reference_encode(value))


@settings(max_examples=30, deadline=None)
@given(for_hint(PipelineResult, native=True))
def test_pipeline_result_round_trip(result):
    assert decode(PipelineResult, json.loads(json.dumps(syn.encoded(result)))) == result
    assert decode(PipelineResult, syn.encoded(result)) == result


def checked_nodes(hint: Any, value: Any, path: str = "", keys: tuple = (), nullable=False):
    """(path, keys, hint, nullable) of every value below the top one whose
    declared type ``decode`` checks; the contents of an untyped ``dict`` are
    not checked."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        yield from checked_nodes(inner, value, path, keys, nullable=True)
        return
    if keys:
        yield path, keys, hint, nullable
    if value is None:
        return
    if origin is tuple:
        item_hints = args if args[-1] is not Ellipsis else [args[0]] * len(value)
        for i, (item_hint, item) in enumerate(zip(item_hints, value)):
            yield from checked_nodes(item_hint, item, f"{path}[{i}]", (*keys, i))
    elif origin is dict:
        for key, item in value.items():
            yield from checked_nodes(args[1], item, f"{path}[{key!r}]", (*keys, key))
    elif is_dataclass(hint):
        for f in fields(hint):
            where = f"{path}.{f.name}" if path else f.name
            yield from checked_nodes(_hints(hint)[f.name], value[f.name], where, (*keys, f.name))


def json_kinds(hint: Any) -> tuple[type, ...]:
    """The JSON value types ``decode`` accepts for ``hint``, null aside."""
    if typing.get_origin(hint) is tuple:
        return (list,)
    if hint is dict or typing.get_origin(hint) is dict or is_dataclass(hint):
        return (dict,)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return (str,)
    return (int, float) if hint is float else (hint,)


ONE_OF_EACH_JSON_TYPE = [None, True, 7, 0.5, "x", [], {}]


def get_at(value: Any, keys: tuple) -> Any:
    for key in keys:
        value = value[key]
    return value


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_decode_checks_every_declared_type(data):
    for cls in result_classes():
        encoded = syn.encoded(data.draw(for_hint(cls, native=True), label=cls.__name__))
        assert syn.encoded(decode(cls, encoded)) == encoded
        nodes = list(checked_nodes(cls, encoded))
        path, keys, hint, nullable = data.draw(st.sampled_from(nodes), label="leaf")
        wrong = [
            other
            for other in ONE_OF_EACH_JSON_TYPE
            if type(other) not in json_kinds(hint) and not (other is None and nullable)
        ]
        mistyped = json.loads(json.dumps(encoded))
        get_at(mistyped, keys[:-1])[keys[-1]] = data.draw(st.sampled_from(wrong), label="value")
        with pytest.raises((TypeError, ValueError)) as excinfo:
            decode(cls, mistyped)
        assert str(excinfo.value).startswith(f"{path} must be ")
        objects = [((), "")] + [
            (keys, path + ".")
            for path, keys, hint, _ in nodes
            if is_dataclass(hint) and get_at(encoded, keys) is not None
        ]
        object_keys, prefix = data.draw(st.sampled_from(objects), label="object")
        extended = json.loads(json.dumps(encoded))
        get_at(extended, object_keys)["unexpected"] = 0
        with pytest.raises(ValueError, match=re.escape(f"unknown key {prefix + 'unexpected'!r}")):
            decode(cls, extended)


def test_mixin_enum_subclass_and_nesting():
    value = Whole(
        parts=(Part("a"), Heavier("b", 0.5, ballast=3)),
        mood=Mixed.LOUD,
        extra={"roles": (SpeakerRole.CHILD, None), "nested": {"t": ((1, 2), [3.5])}},
    )
    encoded = syn.encoded(value)
    assert encoded == reference_encode(value)
    assert type(encoded["mood"]) is str and encoded["mood"] == "loud"
    assert encoded["parts"][1] == {"label": "b", "weight": 0.5, "ballast": 3}
    assert encoded["extra"] == {"roles": ["child", None], "nested": {"t": [[1, 2], [3.5]]}}


class Level(IntEnum):
    LOW = 1
    HIGH = 10**20


awkward_text = st.text(max_size=10) | st.sampled_from(
    ['"', "\\", 'say "hi"\\n', "\x00\x1f\x7f\t\r\n", "é€😀\u2028\ud800", ""]
)
any_float = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
    | st.floats().map(np.float64)
)
any_int = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
codec_values = st.one_of([for_hint(cls, native=False) for cls in result_classes()])
json_values = st.recursive(
    st.none()
    | st.booleans()
    | any_int
    | any_float
    | awkward_text
    | st.sampled_from([*SpeakerRole, *Mixed, *Level])
    | codec_values,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(awkward_text, inner, max_size=4),
    max_leaves=12,
)


def strict(encode, *args, **kwargs):
    """What ``encode(*args, **kwargs)`` gives, or ValueError where it raises
    that, as ``json`` does with ``allow_nan=False`` on a NaN or infinite float."""
    try:
        return encode(*args, **kwargs)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_chunks_is_json_dump(value):
    assert strict(lambda: "".join(json_chunks(value))) == strict(
        json.dumps, reference_encode(value), indent=2, allow_nan=False
    )


@pytest.mark.parametrize(
    "weight, x", [(0.5, -2.25), (math.nan, 1.0), (0.5, -math.inf)], ids=["finite", "nan", "-inf"]
)
def test_write_json_is_json_dump(tmp_path, weight, x):
    value = Whole(
        parts=(Part("a"), Heavier("b", weight, ballast=3)),
        mood=Mixed.LOUD,
        extra={"flags": [True, False, None], "e": {}, "l": [], "x": x},
    )

    def expected():
        with open(tmp_path / "expected.json", "w", encoding="utf-8") as handle:
            json.dump(reference_encode(value), handle, indent=2, allow_nan=False)
            handle.write("\n")
        return (tmp_path / "expected.json").read_bytes()

    written = strict(lambda: write_json(tmp_path / "value.json", value).read_bytes())
    assert written == strict(expected)
    assert (written is ValueError) == (math.isnan(weight) or math.isinf(x))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_refused(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        "".join(json_chunks({"rate": [1.0, value]}))


@pytest.mark.parametrize(
    "value",
    [{1: "a"}, {None: 1}, {("a",): 1}, [{"ok": {2.5: 0}}], Whole((), Mixed.LOUD, {3: 3})],
)
def test_json_chunks_needs_string_keys(value):
    with pytest.raises(TypeError, match="keys must be str"):
        "".join(json_chunks(value))


@pytest.mark.parametrize("leaf", [np.int64(3), {1, 2}, b"bytes", object()])
def test_json_chunks_refuses_what_json_refuses(leaf):
    with pytest.raises(TypeError):
        json.dumps(reference_encode([leaf]), indent=2)
    with pytest.raises(TypeError):
        "".join(json_chunks([leaf]))
