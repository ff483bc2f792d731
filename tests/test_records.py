"""The engine's result records are immutable values that survive a pickle
round trip, which `verify --jobs` relies on to bring reports back from its
workers."""

import pickle

import pytest

from chowforge.catalog import Params, derive_thm_1_3, lemma_3_4_check, twist_chern_data
from chowforge.chowops import pullback_gl2_from_pgl2
from chowforge.cli import CheckReport
from chowforge.grideal import EqualityResult
from chowforge.intpoly import Polynomial, ring_make
from chowforge.zlinalg import AbelianInvariants

R = ring_make([("t", 1)])


def records():
    return [
        Params(g=4, n=2),
        Params(a=1, b=3),
        CheckReport("lemma34-superfluous", Params(a=1, b=1), "fail", "no certificate", 3),
        AbelianInvariants(2, (2, 4)),
        EqualityResult(True),
        EqualityResult(False, 2 * Polynomial.var(R, "t"), "left"),
    ]


@pytest.mark.parametrize("record", records(), ids=repr)
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert str(back) == str(record) and repr(back) == repr(record)


def test_unpickling_reruns_the_invariant_checks():
    forged = tuple.__new__(AbelianInvariants, (0, (2, 3)))
    with pytest.raises(ValueError, match="chain"):
        pickle.loads(pickle.dumps(forged))


def test_repr_names_the_fields():
    assert repr(AbelianInvariants(1, (2,))) == "AbelianInvariants(free_rank=1, torsion=(2,))"
    assert repr(Params(a=1, b=2)) == "Params(g=None, n=None, a=1, b=2)"


# (build the record, one of its fields); built in the test, so that
# collecting the tests fills no engine cache
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Params(g=4, n=2), "g"),
        (lambda: CheckReport("x", Params(), "pass", None), "verdict"),
        (lambda: AbelianInvariants(1), "torsion"),
        (lambda: EqualityResult(True), "equal"),
        (lambda: derive_thm_1_3(4, 2), "presentation"),
        (lambda: lemma_3_4_check(1, 1), "ok"),
        (twist_chern_data, "c1"),
        (lambda: pullback_gl2_from_pgl2(1, 1), "images"),
    ],
)
def test_fields_are_read_only(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_params_text_and_order():
    assert str(Params(g=8, n=3)) == "g=8, n=3"
    assert str(Params()) == ""
    assert Params(a=2, b=1)._asdict() == {"g": None, "n": None, "a": 2, "b": 1}
    assert Params(a=2, b=1).sort_key() == (-1, -1, 2, 1)
