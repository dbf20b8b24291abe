"""Hallmark computation, binarization, and the two distances."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpusgen import random_hallmark
from tangibility import (
    Application,
    BinaryHallmark,
    Count,
    Entity,
    Hallmark,
    SymbolicCountError,
    binarize,
    compute_hallmark,
    hamming_distance,
    l1_distance,
    parse_term,
)


def _entity(term_name: str, count: Count = Count(1)) -> Entity:
    term = parse_term(term_name)
    return Entity(name=term_name, role=term.role, tangibility=term.tangibility, count=count)


def _app(*entities: Entity) -> Application:
    return Application(id=1, name="A", entities=entities)


seeds = st.integers(0, 2**32 - 1)


def test_component_positions():
    mark = compute_hallmark(_app(_entity("datible"), _entity("constnible")))
    assert mark == Hallmark.of(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)


def test_records_sum_per_term():
    mark = compute_hallmark(
        _app(
            _entity("constable"),
            _entity("opable"),
            _entity("opable"),
            _entity("datnible"),
            _entity("datable"),
        )
    )
    assert mark == Hallmark.of(0, 1, 1, 0, 0, 0, 0, 2, 0, 0, 1, 0)


def test_counts_weigh_in():
    mark = compute_hallmark(_app(_entity("tolable", Count(3)), _entity("tolable")))
    assert mark.component(parse_term("tolable")) == Count(4)


def test_many_absorbs_in_sums():
    mark = compute_hallmark(_app(_entity("opible", Count.MANY), _entity("opible")))
    assert mark.component(parse_term("opible")) == Count.MANY
    assert mark.has_many


def test_empty_application_is_zero():
    assert compute_hallmark(_app()) == Hallmark.zero()
    assert not Hallmark.zero().has_many


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        Hallmark.of(1, 2, 3)
    with pytest.raises(ValueError):
        BinaryHallmark((0,) * 11)
    with pytest.raises(ValueError):
        BinaryHallmark((0,) * 11 + (2,))


def test_of_takes_counts_ints_and_many_only():
    assert Hallmark.of(Count(2), 1, "many", *[0] * 9).components[:3] == (
        Count(2),
        Count(1),
        Count.MANY,
    )
    for bad in (1.5, True):
        with pytest.raises(TypeError, match="component must be an int, 'many', or Count"):
            Hallmark.of(bad, *[0] * 11)


def test_text_form_uses_n_for_many():
    assert str(Hallmark.of("many", 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0)) == (
        "(N, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0)"
    )


def test_binarize_cuts_to_presence():
    mark = Hallmark.of(0, 2, "many", 1, 0, 0, 0, 5, 0, 0, 0, 0)
    assert binarize(mark).bits == (0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0)


@given(seeds)
def test_binarize_is_idempotent_on_presence(seed):
    mark = random_hallmark(random.Random(seed))
    once = binarize(mark)
    again = binarize(Hallmark.of(*once.bits))
    assert once == again


def test_l1_of_identical_is_zero():
    mark = Hallmark.of(2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0)
    assert l1_distance(mark, mark) == 0


def test_l1_example():
    urp = Hallmark.of(2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0)
    coda = Hallmark.of(1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1, 0)
    assert l1_distance(urp, coda) == 8


def test_l1_rejects_many():
    many = Hallmark.of("many", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(SymbolicCountError):
        l1_distance(many, Hallmark.zero())
    with pytest.raises(SymbolicCountError):
        l1_distance(Hallmark.zero(), many)


def test_hamming_examples():
    a = BinaryHallmark((0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0))
    b = BinaryHallmark((0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0))
    assert hamming_distance(a, b) == 1
    assert hamming_distance(a, a) == 0
    zeros = BinaryHallmark((0,) * 12)
    ones = BinaryHallmark((1,) * 12)
    assert hamming_distance(zeros, ones) == 12


@given(seeds, seeds)
def test_l1_matches_componentwise_oracle(seed_a, seed_b):
    a = random_hallmark(random.Random(seed_a), allow_many=False)
    b = random_hallmark(random.Random(seed_b), allow_many=False)
    expected = sum(
        abs(x.value - y.value) for x, y in zip(a.components, b.components)
    )
    assert l1_distance(a, b) == expected
    assert l1_distance(b, a) == expected


@given(seeds, seeds, seeds)
def test_metric_axioms(seed_a, seed_b, seed_c):
    rng_a, rng_b, rng_c = (random.Random(s) for s in (seed_a, seed_b, seed_c))
    a = random_hallmark(rng_a, allow_many=False)
    b = random_hallmark(rng_b, allow_many=False)
    c = random_hallmark(rng_c, allow_many=False)
    assert l1_distance(a, b) >= 0
    assert (l1_distance(a, b) == 0) == (a == b)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)
    ba, bb, bc = binarize(a), binarize(b), binarize(c)
    assert 0 <= hamming_distance(ba, bb) <= 12
    assert hamming_distance(ba, bb) == hamming_distance(bb, ba)
    assert (hamming_distance(ba, bb) == 0) == (ba == bb)
    assert hamming_distance(ba, bc) <= hamming_distance(ba, bb) + hamming_distance(bb, bc)


@given(seeds, seeds)
def test_hamming_never_exceeds_l1(seed_a, seed_b):
    a = random_hallmark(random.Random(seed_a), allow_many=False)
    b = random_hallmark(random.Random(seed_b), allow_many=False)
    assert hamming_distance(binarize(a), binarize(b)) <= l1_distance(a, b)
