"""The value types behave as the frozen dataclasses they were declared as: ``conftest.VALUE_TWINS`` is the oracle."""
import inspect
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slalom.braids import BraidGenerator, BraidLetter, BraidWord
from slalom.config import Config
from slalom.covering import ElementaryPiece, HalfPlane, Plane, PolyPath, SlalomDecomposition, word_to_curve
from slalom.elliptic import BoundCheckReport, QuadModulus
from slalom.syllables import BoundConstants, LambdaBounds, Syllable, SyllableDecomposition, decompose
from slalom.words import FreeWord, Generator, Term

from conftest import VALUE_TWINS, pure_braids, reduced_words


def valid(cls):
    """Whether ``cls`` accepts a tuple of fields."""
    def check(fields):
        try:
            cls(*fields)
        except ValueError:
            return False
        return True
    return check


FLOATS = st.floats()  # nan and the infinities included: a field holds what it is given
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
PIECES = st.builds(ElementaryPiece, st.sampled_from(HalfPlane), st.integers(), st.integers())

# a strategy for the fields of each type, each tuple of fields one that its checks accept
FIELDS = {
    Term: st.tuples(st.sampled_from(Generator), st.integers(-(2**63), 2**63 - 1).filter(bool)),
    FreeWord: reduced_words().map(lambda w: (w.terms,)),
    Syllable: reduced_words().filter(lambda w: w.terms).flatmap(lambda w: st.sampled_from(decompose(w).syllables))
    .map(lambda s: (s.terms, s.kind)),
    SyllableDecomposition: reduced_words().map(lambda w: (decompose(w).syllables,)),
    BoundConstants: st.tuples(POSITIVE, POSITIVE).map(sorted).map(tuple),
    LambdaBounds: st.tuples(FLOATS, FLOATS, FLOATS, st.booleans()),
    Config: st.tuples(st.tuples(POSITIVE, POSITIVE).map(sorted), st.integers(16, 10**6), POSITIVE, POSITIVE)
    .map(lambda f: (*f[0], *f[1:])),
    QuadModulus: st.tuples(FLOATS, FLOATS),
    BoundCheckReport: st.tuples(st.lists(FLOATS, max_size=4).map(tuple), FLOATS, FLOATS),
    PolyPath: st.one_of(st.tuples(st.lists(st.complex_numbers(max_magnitude=4), min_size=1, max_size=5).map(tuple),
                                  st.sampled_from(Plane)).filter(valid(PolyPath)),
                        st.builds(lambda w, samples: (word_to_curve(w, samples).points, Plane.PUNCTURED),
                                  reduced_words(max_terms=3, max_exp=2), st.sampled_from((16, 17)))),
    ElementaryPiece: st.tuples(st.sampled_from(HalfPlane), st.integers(), st.integers()),
    SlalomDecomposition: st.lists(PIECES, max_size=4).map(lambda pieces: (tuple(pieces),)),
    BraidLetter: st.tuples(st.sampled_from(BraidGenerator), st.sampled_from((1, -1))),
    BraidWord: pure_braids(max_factors=3).map(lambda b: (b.letters,)),
}
TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def built(cls, fields):
    """A value of ``cls`` and of its twin, built from one tuple of fields."""
    return cls(*fields), VALUE_TWINS[cls.__name__](*fields)


def refusal(action, value, name):
    """The message of the ``AttributeError`` that ``action(value, name, ...)`` raises (the dataclass raises its
    subclass ``FrozenInstanceError``)."""
    with pytest.raises(AttributeError) as exc:
        action(value, name, 0) if action is setattr else action(value, name)
    return str(exc.value)


def test_every_value_type_has_a_twin():
    assert sorted(cls.__name__ for cls in FIELDS) == sorted(VALUE_TWINS)


@TYPES
@given(data=st.data())
def test_equality_hash_and_repr(cls, data):
    fields = data.draw(FIELDS[cls])
    same = data.draw(st.one_of(st.just(fields), st.just(tuple(fields)), FIELDS[cls]))
    other = data.draw(st.sampled_from(list(FIELDS)))
    value, twin = built(cls, fields)
    assert (repr(value), hash(value)) == (repr(twin), hash(twin))
    for v, t in (built(cls, same), built(other, data.draw(FIELDS[other])), (fields, fields), (None, None)):
        got = value == v, value != v, v == value, value.__eq__(v)
        assert got == (twin == t, twin != t, t == twin, twin.__eq__(t))


@TYPES
@given(data=st.data())
def test_assignment_and_deletion_refused(cls, data):
    value, twin = built(cls, data.draw(FIELDS[cls]))
    for name in (*cls.__match_args__, "other", "__dict__"):
        for action in (setattr, delattr):
            assert refusal(action, value, name) == refusal(action, twin, name)
    assert repr(value) == repr(twin)


@TYPES
@given(data=st.data())
def test_pickle_round_trip(cls, data):
    value, twin = built(cls, data.draw(FIELDS[cls]))
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and (list(vars(copy)), repr(copy)) == (list(vars(twin)), repr(twin))
    copy_twin = VALUE_TWINS[cls.__name__](*map(vars(copy).get, cls.__match_args__))  # a nan copied is another nan
    assert (copy == value, hash(copy), repr(copy)) == (copy_twin == twin, hash(copy_twin), repr(copy_twin))
    assert refusal(setattr, copy, cls.__match_args__[0]) == refusal(setattr, twin, cls.__match_args__[0])


@TYPES
@given(data=st.data())
def test_signature_defaults_and_keywords(cls, data):
    twin_cls = VALUE_TWINS[cls.__name__]

    def parameters(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert (cls.__match_args__, parameters(cls)) == (twin_cls.__match_args__, parameters(twin_cls))
    fields = data.draw(FIELDS[cls])
    keywords = dict(zip(cls.__match_args__, fields))
    value = cls(**keywords)
    assert value == cls(*fields) and repr(value) == repr(twin_cls(**keywords))
    mixed = cls(fields[0], **dict(list(keywords.items())[1:]))
    assert mixed == value and vars(mixed) == vars(value)
    if all(default is not inspect.Parameter.empty for _, _, default in parameters(cls)):
        assert repr(cls()) == repr(twin_cls())
