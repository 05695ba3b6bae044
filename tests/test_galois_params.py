"""Tests for the inertial parameter model."""

import json
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import param_twist, params

from serrewt.errors import ParamError
from serrewt.galois_params import (
    SHAPE_NONSPLIT,
    SHAPE_PEU,
    SHAPE_SPLIT,
    SHAPE_TRES,
    Irreducible,
    Reducible,
    _normalize_level2,
    enumerate_params,
    param_to_dict,
    parse_param,
)

PRIMES = [3, 5, 7, 11, 13]


def _text(param):
    """The JSON text the CLI writes for a parameter."""
    return json.dumps(param_to_dict(param))


# ---------------------------------------------------------------------------
# _normalize_level2


def test_normalize_level2_examples():
    assert _normalize_level2(5, 7) == (1, 2)
    assert _normalize_level2(5, 11) == (1, 2)  # digits (2,1) need a Frobenius flip
    assert _normalize_level2(5, 6) is None  # level one: p+1 divides e
    assert _normalize_level2(5, 0) is None


@given(p=st.sampled_from(PRIMES), e=st.integers(-3000, 3000))
@settings(max_examples=200, deadline=None)
def test_normalize_level2_frobenius_invariance(p, e):
    if e % (p + 1) == 0:
        assert _normalize_level2(p, e) is None
        return
    a, b = _normalize_level2(p, e)
    assert 0 <= a < b <= p - 1
    assert _normalize_level2(p, p * e) == (a, b)
    # {e, pe} really is {pa+b, a+pb} mod p^2-1
    n = p * p - 1
    assert {e % n, (p * e) % n} == {(p * a + b) % n, (a + p * b) % n}


# ---------------------------------------------------------------------------
# validation


def test_invariant_violations():
    with pytest.raises(ParamError):
        Irreducible(5, 2, 2)  # needs a < b
    with pytest.raises(ParamError):
        Irreducible(5, 0, 5)  # b > p-1
    with pytest.raises(ParamError):
        Reducible(5, 4, 2, SHAPE_TRES, True)  # tres needs ratio 1
    with pytest.raises(ParamError):
        Reducible(5, 0, 1, SHAPE_PEU, False)  # peu needs equal lambdas
    with pytest.raises(ParamError):
        Reducible(5, 0, 1, SHAPE_NONSPLIT, True)  # must be peu or tres
    with pytest.raises(ParamError):
        Reducible(5, 5, 0, SHAPE_SPLIT, True)  # twist out of range
    with pytest.raises(ParamError):
        Reducible(2, 0, 0, SHAPE_SPLIT, True)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_p3():
    params3 = enumerate_params(3)
    irr = [q for q in params3 if isinstance(q, Irreducible)]
    red = [q for q in params3 if isinstance(q, Reducible)]
    assert len(irr) == 3
    assert len(red) == 18
    assert [(q.a, q.b) for q in irr] == [(0, 1), (0, 2), (1, 2)]


def test_enumeration_count_p5():
    assert len(enumerate_params(5)) == 78


@pytest.mark.parametrize("p", PRIMES)
def test_enumeration_count_formula(p):
    # recount from the enumeration rule: two entries per (m, r, lambda)
    # cell plus one extra at (r=1, lambda equal)
    expected = p * (p - 1) // 2 + (p - 1) * ((p - 1) * 2 * 2 + 1)
    got = enumerate_params(p)
    assert len(got) == expected
    assert len(set(got)) == expected  # no duplicates


def test_enumeration_shapes_at_special_cell():
    shapes = {
        (q.ratio, q.lambda_equal, q.shape)
        for q in enumerate_params(5)
        if isinstance(q, Reducible) and q.twist == 0
    }
    assert (1, True, SHAPE_PEU) in shapes
    assert (1, True, SHAPE_TRES) in shapes
    assert (1, True, SHAPE_NONSPLIT) not in shapes
    assert (1, False, SHAPE_NONSPLIT) in shapes


@pytest.mark.parametrize("p", [3, 5, 7, 47])
def test_enumerated_records_equal_their_checked_rebuild(p):
    # enumerate_params tests p once and builds its records unchecked; each
    # must be the record the checking constructor builds from its fields
    records = enumerate_params(p)
    rebuilt = [type(q)(*astuple(q)) for q in records]
    assert [type(q) for q in rebuilt] == [type(q) for q in records]
    assert rebuilt == records
    assert [vars(q) for q in rebuilt] == [vars(q) for q in records]
    assert [hash(q) for q in rebuilt] == [hash(q) for q in records]
    for cls in (Irreducible, Reducible):
        ours = [q for q in records if type(q) is cls]
        theirs = [q for q in rebuilt if type(q) is cls]
        order = range(len(ours))
        assert sorted(order, key=ours.__getitem__) == sorted(order, key=theirs.__getitem__)


# ---------------------------------------------------------------------------
# twisting (the test helper the twist-equivariance tests rely on)


def test_param_twist_examples():
    r = Reducible(5, 1, 2, SHAPE_SPLIT, True)
    assert param_twist(r, 3) == Reducible(5, 0, 2, SHAPE_SPLIT, True)
    i = Irreducible(5, 0, 3)
    assert param_twist(i, 0) == i
    assert param_twist(i, 1) == Irreducible(5, 1, 4)


@given(x=params(), s=st.integers(-10, 10), t=st.integers(-10, 10))
@settings(max_examples=150, deadline=None)
def test_param_twist_composition(x, s, t):
    assert param_twist(x, s + t) == param_twist(param_twist(x, s), t)


@given(x=params())
@settings(max_examples=100, deadline=None)
def test_param_twist_full_period_is_identity(x):
    assert param_twist(x, x.p - 1) == x


# ---------------------------------------------------------------------------
# serialization


def test_parse_examples():
    assert parse_param('{"p":5,"type":"irreducible","a":0,"b":3}') == Irreducible(5, 0, 3)
    got = parse_param(
        '{"p":5,"type":"reducible","twist":0,"ratio":1,"shape":"tres","lambda_equal":true}'
    )
    assert got == Reducible(5, 0, 1, SHAPE_TRES, True)


def test_parse_rejects_bad_records():
    with pytest.raises(ParamError):
        parse_param(
            '{"p":5,"type":"reducible","twist":0,"ratio":2,"shape":"tres","lambda_equal":true}'
        )
    with pytest.raises(ParamError):
        parse_param('{"p":5,"type":"irreducible","a":0}')  # missing field
    with pytest.raises(ParamError):
        parse_param('{"p":5,"type":"irreducible","a":0,"b":3,"x":1}')  # extra field
    with pytest.raises(ParamError):
        parse_param('{"p":5,"type":"banana"}')
    with pytest.raises(ParamError):
        parse_param("not json")
    with pytest.raises(ParamError):
        parse_param('{"p":5,"type":"irreducible","a":"0","b":3}')  # wrong type
    with pytest.raises(ParamError):
        parse_param('[1,2,3]')


@given(x=params())
@settings(max_examples=150, deadline=None)
def test_serialization_round_trip(x):
    text = _text(x)
    assert parse_param(text) == x
    assert _text(parse_param(text)) == text


@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_enumerated_param_round_trips(p):
    for q in enumerate_params(p):
        assert parse_param(_text(q)) == q
