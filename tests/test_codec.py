"""The JSON codec: the cached encode plan gives what the plain recursive walk
gives, for every result class, and results survive a round trip."""

import json
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from talkmetrics import PipelineResult, SpeakerRole
from talkmetrics.codec import Codec, _hints


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


def codec_classes() -> list[type]:
    found, todo = [], [Codec]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.append(cls)
            todo.append(cls)
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
class Part(Codec):
    label: str
    weight: float | None = None


class Mixed(str, Enum):
    """A ``str``-mixin enum: it must encode as its value, not as a string."""

    LOUD = "loud"


@dataclass(frozen=True)
class Whole(Codec):
    parts: tuple[Part, ...]
    mood: Mixed
    extra: dict


@dataclass(frozen=True)
class Heavier(Part):
    ballast: int = 0


def test_every_result_class_is_covered():
    names_found = {cls.__name__ for cls in codec_classes()}
    assert {
        "EntryError",
        "PipelineResult",
        "FeatureSummary",
        "ConfusionMatrix",
        "MetricSet",
        "RecordingReliability",
        "IccEntry",
        "ReliabilityReport",
    } <= names_found


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_to_dict_matches_reference(data):
    for cls in codec_classes():
        value = data.draw(for_hint(cls, native=False), label=cls.__name__)
        encoded = value.to_dict()
        assert encoded == reference_encode(value)
        assert json.dumps(encoded) == json.dumps(reference_encode(value))


@settings(max_examples=30, deadline=None)
@given(for_hint(PipelineResult, native=True))
def test_pipeline_result_round_trip(result):
    assert PipelineResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result
    assert PipelineResult.from_dict(result.to_dict()) == result


def test_mixin_enum_subclass_and_nesting():
    value = Whole(
        parts=(Part("a"), Heavier("b", 0.5, ballast=3)),
        mood=Mixed.LOUD,
        extra={"roles": (SpeakerRole.CHILD, None), "nested": {"t": ((1, 2), [3.5])}},
    )
    encoded = value.to_dict()
    assert encoded == reference_encode(value)
    assert type(encoded["mood"]) is str and encoded["mood"] == "loud"
    assert encoded["parts"][1] == {"label": "b", "weight": 0.5, "ballast": 3}
    assert encoded["extra"] == {"roles": ["child", None], "nested": {"t": [[1, 2], [3.5]]}}
