"""The private record decorator against the standard frozen data classes
it replaces: twin toy classes, one of each kind, must behave alike."""

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import pytest

from adicshift._record import record
from adicshift.diagrams import FinitePath
from adicshift.words import Substitution, Word, parse_substitution

# twins: D* from dataclasses, R* from record; the bodies are identical


@dataclass(frozen=True)
class DPoint:
    name: str
    size: int = 3

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be >= 0")

    @cached_property
    def double(self):
        return 2 * self.size


@record
class RPoint:
    name: str
    size: int = 3

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be >= 0")

    @cached_property
    def double(self):
        return 2 * self.size


@dataclass(frozen=True)
class DTable:
    heights: dict
    level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "heights", dict(self.heights))


@record
class RTable:
    heights: dict
    level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "heights", dict(self.heights))


@dataclass(frozen=True)
class DKeyed:
    name: str

    def __hash__(self):
        return len(self.name)


@record
class RKeyed:
    name: str

    def __hash__(self):
        return len(self.name)


# the table twins hold a dict, so they are frozen but cannot hash
HASHABLE = [(DPoint, RPoint, ("a",)), (DPoint, RPoint, ("b", 5))]
TWINS = HASHABLE + [(DTable, RTable, ({"x": 1},)),
                    (DTable, RTable, ({"x": 1, "y": 2}, 4))]


@pytest.mark.parametrize("d, r, args", TWINS)
def test_repr_matches_up_to_the_class_name(d, r, args):
    assert repr(r(*args)) == "R" + repr(d(*args))[1:]


@pytest.mark.parametrize("d, r, args", TWINS)
def test_equality_within_and_across_classes(d, r, args):
    assert r(*args) == r(*args) and d(*args) == d(*args)
    assert r(*args) != r(*args[:1], 7)
    assert r(*args) != d(*args) and d(*args) != r(*args)
    assert r(*args).__eq__(d(*args)) is NotImplemented
    assert d(*args).__eq__(r(*args)) is NotImplemented
    assert r(*args) != args


@pytest.mark.parametrize("d, r, args", HASHABLE)
def test_frozen_hash_is_the_field_tuple_hash(d, r, args):
    full = (args + (3,))[:2]
    assert hash(r(*args)) == hash(d(*args)) == hash(full)
    assert len({r(*args), r(*full)}) == 1


def test_tower_table_refuses_assignment_and_hashing():
    for t in (RTable({"x": 1}), DTable({"x": 1})):
        with pytest.raises(TypeError):
            hash(t)
        with pytest.raises(AttributeError):
            t.level = 9


def test_defaults_keywords_and_post_init():
    assert RPoint.size == DPoint.size == 3
    assert RPoint(size=4, name="b") == RPoint("b", 4)
    assert RTable({"x": 1}).heights == {"x": 1}
    for cls in (DPoint, RPoint):
        with pytest.raises(ValueError):
            cls("a", -1)


@pytest.mark.parametrize("call", [
    lambda cls: cls(),
    lambda cls: cls(size=2),
    lambda cls: cls("a", 2, 3),
    lambda cls: cls("a", name="b"),
    lambda cls: cls("a", colour=1),
])
def test_bad_construction_raises_type_error(call):
    for cls in (DPoint, RPoint):
        with pytest.raises(TypeError):
            call(cls)


def test_frozen_fields_refuse_assignment_and_deletion():
    for cls in (DPoint, RPoint):
        p = cls("a")
        with pytest.raises(AttributeError):
            p.size = 4
        with pytest.raises(AttributeError):
            p.other = 4
        with pytest.raises(AttributeError):
            del p.name
        assert p.size == 3
    with pytest.raises(FrozenInstanceError) as raised:
        DPoint("a").size = 4
    with pytest.raises(AttributeError, match=str(raised.value)):
        RPoint("a").size = 4


def test_cached_property_on_a_frozen_record():
    p = RPoint("a", 5)
    assert p.double == 10
    assert vars(p) == {"name": "a", "size": 5, "double": 10}
    assert p == RPoint("a", 5)


@pytest.mark.parametrize("value", [
    RPoint("a"), RPoint("b", 5), RTable({"x": 1}, 2),
])
def test_pickle_and_copy_round_trips(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


def test_pickle_keeps_a_cached_value():
    p = RPoint("a", 5)
    p.double
    back = pickle.loads(pickle.dumps(p))
    assert back == p and vars(back) == vars(p)


def test_match_args_and_pattern_matching():
    assert RPoint.__match_args__ == DPoint.__match_args__ == ("name", "size")
    match RPoint("a", 2):
        case RPoint(name, size=2):
            assert name == "a"
        case _:
            pytest.fail("no match")


def test_package_records_hash_as_their_field_tuples():
    s = Substitution(("a", "b"), (("a", "b"), ("a",)))
    assert hash(s) == hash((("a", "b"), (("a", "b"), ("a",))))
    assert hash(Word(("a",))) == hash((("a",), None))
    assert hash(FinitePath(1, "a", (0,))) == hash((1, "a", (0,)))


def test_a_hash_the_class_defines_is_kept():
    for cls in (DKeyed, RKeyed):
        assert hash(cls("abc")) == 3 and cls("abc") == cls("abc")
        assert cls("abc") != cls("xyz")
    s = parse_substitution("a -> ab\nb -> a")
    assert hash(s) == hash((s.alphabet, s.images)) == hash(s)
    # the cached hash stays behind: a string hash differs between processes
    back = pickle.loads(pickle.dumps(s))
    assert back == s and "_hash" not in vars(back)
