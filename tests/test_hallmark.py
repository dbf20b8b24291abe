"""Hallmark computation, binarization, and the two distances."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpusgen import random_hallmark
import tangibility
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
    all_terms,
    l1_distance,
    parse_term,
)
from tangibility.model import _COUNTS


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


def test_small_totals_share_counts():
    for n in (0, 1, 63, 64, 1000):
        for extra in ((), (_entity("opible", Count.MANY),)):
            mark = compute_hallmark(_app(_entity("datible", Count(n)), *extra))
            assert mark == Hallmark.of(n, 0, 0, 0, 0, 0, "many" if extra else 0, *[0] * 5)
            if n < 64:
                assert mark.component(parse_term("datible")) is _COUNTS[n]


def test_many_absorbs_in_sums():
    mark = compute_hallmark(_app(_entity("opible", Count.MANY), _entity("opible")))
    assert mark.component(parse_term("opible")) == Count.MANY
    assert mark.has_many


@given(seeds)
def test_sum_is_the_fold_of_counts(seed):
    """compute_hallmark sums each term as Count.__add__ folds it: "many" before
    and after exact counts, totals across 63/64, and no entities at all."""
    rng = random.Random(seed)
    many, one = Count.MANY, Count(1)
    cases = [[], [many, one], [one, many], [Count(63), one], [Count(32), Count(32), many]]
    cases = [[("opible", count) for count in counts] for counts in cases]
    names = [term.name for term in all_terms()]
    for n in (rng.randint(1, 8), rng.randint(8, 60)):
        # Few terms, so that totals reach 64 and "many" meets exact counts.
        terms = rng.sample(names, rng.randint(1, 4))
        counts = (many if rng.random() < 0.05 else Count(rng.randint(1, 20)) for _ in range(n))
        cases.append([(rng.choice(terms), count) for count in counts])
    for case in cases:
        expected = [Count(0)] * 12
        for name, count in case:
            index = parse_term(name).index
            expected[index] = expected[index] + count
        mark = compute_hallmark(_app(*(_entity(name, count) for name, count in case)))
        assert mark.components == tuple(expected)
        for count in mark.components:
            assert count.value is not None and count.value >= 64 or count is _COUNTS[count.value]


def test_empty_application_is_zero():
    assert compute_hallmark(_app()) == Hallmark.zero()
    assert not Hallmark.zero().has_many


def test_every_mask_from_shared_and_fresh_counts():
    """All 4,096 positivity masks, each built once from the shared Counts and
    once from fresh ones: the same mask, "many" flag, equality and hash, and the
    JSON and text forms that each Count gives."""
    cycle = (1, 63, 64, 1000, None)
    marks = set()
    for mask in range(1 << 12):
        values = [0] * 12
        positive = [i for i in range(12) if mask >> i & 1]
        for k, i in enumerate(positive):
            values[i] = cycle[(k + mask) % len(cycle)]
        shared = Hallmark(
            tuple(
                Count.MANY if v is None else _COUNTS[v] if v < 64 else Count(v)
                for v in values
            )
        )
        fresh = Hallmark(tuple(Count(v) for v in values))
        for mark in (shared, fresh):
            components = mark.components
            assert mark.mask == sum(1 << i for i, c in enumerate(components) if c.is_positive)
            assert mark.mask == mask
            assert mark.has_many == any(c.is_many for c in components)
            assert mark.to_json() == [c.to_json() for c in components]
            cells = ("N" if c.is_many else str(c.value) for c in components)
            assert str(mark) == "(" + ", ".join(cells) + ")"
        assert shared == fresh
        assert hash(shared) == hash(fresh)
        assert len({shared, fresh}) == 1
        marks |= {shared, fresh}
    assert len(marks) == 1 << 12


def test_dataclass_surface():
    mark = Hallmark.of("many", 1, 64, *[0] * 9)
    counts = ["Count(value=None)", "Count(value=1)", "Count(value=64)"] + ["Count(value=0)"] * 9
    assert repr(mark) == f"Hallmark(components=({', '.join(counts)}))"
    assert [(f.name, f.init, f.repr, f.compare, f.hash) for f in fields(Hallmark)] == [
        ("components", True, True, True, None),
        ("mask", False, False, False, None),
    ]
    other = Hallmark.of(*[2] * 12)
    replaced = replace(mark, components=other.components)
    assert replaced == other
    assert hash(replaced) == hash(other)
    assert (replaced.mask, replaced.has_many) == (0xFFF, False)
    with pytest.raises(ValueError):
        replace(mark, mask=0)


def test_a_hallmark_pickled_in_another_process_hashes_as_one_built_here():
    # Before Python 3.12, hash(None), and so the hash of a "many" component's
    # value, differs from one process to the next.
    code = (
        "import pickle, sys; from tangibility import Hallmark; "
        "sys.stdout.buffer.write(pickle.dumps(Hallmark.of('many', 3, *[0] * 10)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tangibility.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, env=env)
    loaded = pickle.loads(run.stdout)
    built = Hallmark.of("many", 3, *[0] * 10)
    assert loaded == built
    assert hash(loaded) == hash(built)
    assert loaded.mask == built.mask


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        Hallmark.of(1, 2, 3)
    with pytest.raises(ValueError):
        BinaryHallmark((0,) * 11)
    for bad in (2, True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="binary hallmark bits must be 0 or 1"):
            BinaryHallmark((0,) * 11 + (bad,))


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
