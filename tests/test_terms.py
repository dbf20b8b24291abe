"""The twelve term names, their order, parsing, and glosses."""

from __future__ import annotations

import copy
import pickle

import pytest

from tangibility import Role, Tangibility, UnknownTermError, all_terms, parse_term, term_of

CANONICAL_ORDER = [
    "datible",
    "datable",
    "datnible",
    "tolible",
    "tolable",
    "tolnible",
    "opible",
    "opable",
    "opnible",
    "constible",
    "constable",
    "constnible",
]


def test_exactly_twelve_in_canonical_order():
    assert [t.name for t in all_terms()] == CANONICAL_ORDER


def test_indices_match_positions():
    assert [t.index for t in all_terms()] == list(range(12))


def test_every_pair_is_covered_once():
    pairs = {(t.role, t.tangibility) for t in all_terms()}
    assert len(pairs) == 12


@pytest.mark.parametrize("name", CANONICAL_ORDER)
def test_parse_round_trip(name):
    assert parse_term(name).name == name


def test_parse_is_case_insensitive():
    assert parse_term("TolNIBLE").name == "tolnible"
    assert parse_term("  datible ").name == "datible"


def test_term_of():
    assert term_of(Role.TOOL, Tangibility.INTANGIBLE).name == "tolnible"
    assert term_of(Role.CONSTRAINT, Tangibility.GRASPABLE).name == "constable"
    assert term_of(Role.DATUM, Tangibility.TANGIBLE).index == 0


@pytest.mark.parametrize("term", all_terms(), ids=lambda term: term.name)
def test_copied_members_are_the_members_and_find_their_term(term):
    """Role and Tangibility hash by identity, so a copy must be the member itself."""
    pair = term.role, term.tangibility
    for role, tangibility in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
        assert role is term.role and tangibility is term.tangibility
        assert term_of(role, tangibility) is term
    assert pickle.loads(pickle.dumps(term)) in {term}


def test_gloss():
    assert parse_term("tolnible").gloss == "Tool is intangible"
    assert parse_term("datible").gloss == "Datum is tangible"
    assert parse_term("opable").gloss == "Operation is graspable"


def test_unknown_term():
    with pytest.raises(UnknownTermError, match="phicon"):
        parse_term("phicon")
    with pytest.raises(UnknownTermError):
        parse_term("")
