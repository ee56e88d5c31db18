from __future__ import annotations

import pytest
from polybox import BoxSpace, PointSet, canonical_form
from polybox.errors import InputError
from generate import random_proper_suit, random_genome, random_alphabet
from polybox.serialize import (
    dumps,
    loads,
    parse_box,
    parse_genome,
    parse_points,
    parse_suit,
    parse_tiling,
    serialize_canonical_form,
    serialize_genome,
    serialize_word_canonical_form,
)
from helpers import serialize_cubes, serialize_points, serialize_suit
from polybox import genome_canonical, generate_two_extremal

S33 = BoxSpace((3, 3))


class TestEnvelope:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            parse_suit({"kind": "sock", "version": "1"})

    def test_rejects_wrong_version(self):
        with pytest.raises(InputError):
            parse_suit({"kind": "suit", "version": "2", "dims": [3], "boxes": [[[0]]]})

    def test_rejects_non_object(self):
        with pytest.raises(InputError):
            loads("[1,2,3]")
        with pytest.raises(InputError):
            loads("{nope")


class TestInputEdges:
    @pytest.mark.parametrize("subset", [[0, 0], [2, 1], [0, 2, 1], [1, 1, 2]])
    def test_refuses_unsorted_or_repeated_subsets(self, subset):
        doc = {"kind": "suit", "version": "1", "dims": [3, 3], "boxes": [[subset, [0]]]}
        with pytest.raises(InputError, match=r"box 0: subset \[.*\] is not increasing"):
            parse_suit(doc)
        with pytest.raises(InputError, match="invalid box: subset"):
            parse_box(S33, dumps([[0], subset]))

    def test_range_errors_keep_their_precedence(self):
        doc = {"kind": "suit", "version": "1", "dims": [3, 3], "boxes": [[[5, 5], [0]]]}
        with pytest.raises(InputError, match="element 5 out of range"):
            parse_suit(doc)

    def test_refuses_repeated_points(self):
        doc = {"kind": "points", "version": "1", "dims": [3, 3],
               "points": [[0, 1], [2, 2], [0, 1]]}
        with pytest.raises(InputError, match="points must not repeat"):
            parse_points(doc)
        doc["points"][2] = [3, 0]
        with pytest.raises(InputError, match="outside the space"):
            parse_points(doc)


class TestRoundTrips:
    def test_suit(self, rng):
        for _ in range(10):
            suit = random_proper_suit(S33, rng)
            doc = serialize_suit(suit)
            space, boxes = parse_suit(loads(dumps(doc)))
            assert space == suit.space and tuple(boxes) == suit.boxes

    def test_points(self, rng):
        ps = PointSet(S33, frozenset({(0, 1), (2, 2)}))
        assert parse_points(loads(dumps(serialize_points(ps)))) == ps

    def test_genome(self, rng):
        for _ in range(10):
            g = random_genome(random_alphabet(rng), 2, rng)
            doc = serialize_genome(g)
            assert parse_genome(loads(dumps(doc))) == g

    def test_tiling(self):
        t = generate_two_extremal(3, 11)
        doc = serialize_cubes(t.d, t.cubes)
        assert parse_tiling(loads(dumps(doc))) == t

    def test_dumps_is_stable(self, rng):
        suit = random_proper_suit(S33, rng)
        doc = serialize_suit(suit)
        assert dumps(doc) == dumps(serialize_suit(suit))
        assert dumps(doc, "pretty") == dumps(serialize_suit(suit), "pretty")


class TestCanonicalFormDocuments:
    def test_box_terms_follow_mask_order(self, rng):
        from polybox.boxes import members_of

        suit = random_proper_suit(S33, rng)
        cf = canonical_form(suit)
        doc = serialize_canonical_form(cf)
        expected = [
            [[list(members_of(m)) for m in key], value]
            for key, value in cf.sorted_items()
        ]
        assert doc["terms"] == expected
        assert [k for k, _ in cf.sorted_items()] == sorted(cf.coeffs)

    def test_word_terms_are_sorted(self, rng):
        g = random_genome(random_alphabet(rng), 2, rng)
        doc = serialize_word_canonical_form(genome_canonical(g))
        assert doc["terms"] == sorted(doc["terms"])
