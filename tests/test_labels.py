"""Labeled permutations: posets, labeled containment, subword order, and the
three label encodings (last-entry, zero-stripping, compass)."""
import itertools
import json
import random

import pytest

from permpat import (
    FILLED,
    HOLLOW,
    TWO_ANTICHAIN,
    FinitePoset,
    LabeledPermutation,
    apply_symmetry_labeled,
    compass_decoding,
    compass_encoding,
    compass_poset,
    constant_labels,
    containment_witness,
    contains,
    labeled_antichain_member,
    labeled_containment_witness,
    labeled_contains,
    labeled_from_json,
    labeled_to_json,
    last_entry_decoding,
    last_entry_encoding,
    poset_from_json,
    poset_to_json,
    strip_zero_labels,
    subword_leq,
)
from permpat.labels import find_good_pair


class TestFinitePoset:
    def test_chain_and_antichain(self):
        chain = FinitePoset.chain(("a", "b", "c"))
        assert chain.leq("a", "c") and not chain.leq("c", "a")
        anti = FinitePoset.antichain(("a", "b"))
        assert anti.leq("a", "a") and not anti.leq("a", "b")

    def test_transitive_closure(self):
        p = FinitePoset(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_cycle_reported_not_rejected(self):
        # quasi-orders are allowed; antisymmetry failure is only flagged
        q = FinitePoset(("a", "b"), [("a", "b"), ("b", "a")])
        assert not q.is_partial_order
        assert FinitePoset.chain(("a", "b")).is_partial_order

    def test_rejects_unknown_pair_elements(self):
        with pytest.raises(ValueError):
            FinitePoset(("a",), [("a", "z")])

    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValueError):
            FinitePoset(("a", "a"))

    def test_adjoin_minimum(self):
        p = TWO_ANTICHAIN.adjoin_minimum(0)
        assert p.leq(0, HOLLOW) and p.leq(0, FILLED) and p.leq(0, 0)
        assert not p.leq(HOLLOW, 0)
        assert not p.leq(HOLLOW, FILLED)

    def test_product(self):
        prod = FinitePoset.chain((0, 1)).product(FinitePoset.chain((0, 1)))
        assert prod.leq((0, 0), (1, 1))
        assert not prod.leq((0, 1), (1, 0))

    def test_json_round_trip(self):
        p = FinitePoset(("a", "b", "c"), [("a", "b"), ("a", "c")])
        q = poset_from_json(poset_to_json(p))
        assert set(q.elements) == set(p.elements)
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == q.leq(x, y)

    def test_json_text_round_trip_of_tuple_elements(self):
        p = compass_poset(TWO_ANTICHAIN)
        q = poset_from_json(json.loads(json.dumps(poset_to_json(p))))
        assert q.elements == p.elements
        assert sorted(q.pairs()) == sorted(p.pairs())

    def test_unhashable_json_element_rejected(self):
        with pytest.raises(ValueError):
            poset_from_json({"elements": [{"a": 1}], "leq": []})


class TestLabeledContainment:
    def test_label_clash_blocks_containment(self):
        # 21 embeds in 321 three ways, but no embedding matches (o, o) labels
        pattern = LabeledPermutation((2, 1), (HOLLOW, HOLLOW))
        text = LabeledPermutation((3, 2, 1), (FILLED, HOLLOW, FILLED))
        assert contains((2, 1), (3, 2, 1))
        assert not labeled_contains(pattern, text, TWO_ANTICHAIN)

    def test_witness_respects_labels(self):
        pattern = LabeledPermutation((2, 1), (HOLLOW, FILLED))
        text = LabeledPermutation((3, 2, 1), (FILLED, HOLLOW, FILLED))
        w = labeled_containment_witness(pattern, text, TWO_ANTICHAIN)
        assert w == (2, 3)

    def test_degenerate_poset_is_plain_containment(self):
        one = FinitePoset.antichain(("x",))
        s = constant_labels((2, 4, 1, 3), "x")
        p = constant_labels((3, 6, 2, 8, 5, 7, 1, 4), "x")
        assert labeled_contains(s, p, one) == contains(s.perm, p.perm)

    def test_chain_poset_allows_label_increase(self):
        chain = FinitePoset.chain(("lo", "hi"))
        pattern = LabeledPermutation((1, 2), ("lo", "lo"))
        text = LabeledPermutation((1, 2), ("hi", "hi"))
        assert labeled_contains(pattern, text, chain)
        assert not labeled_contains(text, pattern, chain)

    def test_empty_pattern(self):
        p = constant_labels((2, 1), FILLED)
        assert labeled_contains(LabeledPermutation((), ()), p, TWO_ANTICHAIN)

    def test_unknown_label_rejected(self):
        pattern = LabeledPermutation((1,), ("bogus",))
        text = constant_labels((1, 2), FILLED)
        with pytest.raises(ValueError):
            labeled_contains(pattern, text, TWO_ANTICHAIN)

    def test_json_round_trip(self):
        p = LabeledPermutation((3, 1, 2), (FILLED, HOLLOW, FILLED))
        assert labeled_from_json(labeled_to_json(p)) == p

    def test_json_text_round_trip_of_compass_labels(self):
        p = compass_encoding(LabeledPermutation((3, 1, 4, 2), (FILLED, HOLLOW, HOLLOW, FILLED)), 2)
        q = labeled_from_json(json.loads(json.dumps(labeled_to_json(p))))
        assert q == p
        assert labeled_contains(q, p, compass_poset(TWO_ANTICHAIN))

    def test_unhashable_json_label_rejected(self):
        with pytest.raises(ValueError):
            labeled_from_json('{"perm": [1], "labels": [{"a": 1}]}')


def first_combination(sigma, pi, fits=lambda j, pos: True):
    """Brute-force oracle: the first 1-based index tuple, in
    ``itertools.combinations`` (that is, lexicographic) order, whose entries
    of ``pi`` are order-isomorphic to ``sigma`` and pass ``fits`` slot by
    slot; ``None`` when there is none."""
    k = len(sigma)
    for idx in itertools.combinations(range(len(pi)), k):
        if all(
            (pi[idx[a]] < pi[idx[b]]) == (sigma[a] < sigma[b])
            for a in range(k)
            for b in range(a + 1, k)
        ) and all(fits(j, pos) for j, pos in enumerate(idx)):
            return tuple(pos + 1 for pos in idx)
    return None


def random_cases(seed, count):
    """Seeded ``(sigma, pi, carved)`` triples with |pi| <= 7.  Every other
    pattern is carved out of the text at the 0-based positions ``carved``;
    the rest are drawn at random (``carved`` is None), some longer than the
    text, so present and absent cases both occur."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = rng.randint(0, 7)
        pi = tuple(rng.sample(range(1, n + 1), n))
        if i % 2:
            carved = sorted(rng.sample(range(n), rng.randint(0, n)))
            values = [pi[j] for j in carved]
            sigma = tuple(sorted(values).index(v) + 1 for v in values)
        else:
            k = rng.randint(0, min(n + 1, 5))
            sigma, carved = tuple(rng.sample(range(1, k + 1), k)), None
        cases.append((sigma, pi, carved))
    return cases


POSETS = {
    "two-antichain": TWO_ANTICHAIN,
    "chain": FinitePoset.chain(("lo", "mid", "hi")),
    "compass": compass_poset(TWO_ANTICHAIN),
}


class TestContainmentAgainstCombinations:
    """The plain and the labeled witness share one search engine; both must
    return the first matching index tuple of a brute-force sweep."""

    def test_plain(self):
        for sigma, pi, _ in random_cases(5101, 400):
            assert containment_witness(sigma, pi) == first_combination(sigma, pi), (sigma, pi)

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_labeled(self, name):
        poset = POSETS[name]
        rng = random.Random(f"labeled-{name}")
        for sigma, pi, carved in random_cases(5102, 400):
            plabels = tuple(rng.choice(poset.elements) for _ in pi)
            if carved is not None and rng.random() < 0.75:
                # the carved occurrence carries the text's own labels
                slabels = tuple(plabels[pos] for pos in carved)
            else:
                slabels = tuple(rng.choice(poset.elements) for _ in sigma)
            s, p = LabeledPermutation(sigma, slabels), LabeledPermutation(pi, plabels)
            expected = first_combination(
                sigma, pi, lambda j, pos: poset.leq(slabels[j], plabels[pos])
            )
            assert labeled_containment_witness(s, p, poset) == expected, (s, p)


class TestSubwordOrder:
    def test_examples(self):
        chain = FinitePoset.chain(("a", "b"))
        assert subword_leq(("a", "a"), ("a", "b", "a"), chain)
        assert subword_leq(("a", "a"), ("b", "b"), chain)  # a <= b pointwise
        assert not subword_leq(("b", "b"), ("a", "b"), chain)
        assert subword_leq((), ("a",), chain)

    def test_antichain_needs_exact_letters(self):
        anti = FinitePoset.antichain(("a", "b"))
        assert not subword_leq(("a",), ("b", "b"), anti)
        assert subword_leq(("a", "b"), ("b", "a", "b"), anti)

    def test_find_good_pair(self):
        chain = FinitePoset.chain(("a", "b"))
        assert find_good_pair([("a",), ("a", "b")], lambda v, w: subword_leq(v, w, chain)) == (1, 2)
        assert find_good_pair([("b",), ("a",)], lambda v, w: subword_leq(v, w, chain)) is None


class TestLastEntryEncoding:
    def test_anchor(self):
        image = last_entry_encoding((2, 8, 7, 3, 6, 9, 1, 5, 4))
        assert image.perm == (2, 7, 6, 3, 5, 8, 1, 4)
        assert image.labels == ("o", "*", "*", "o", "*", "*", "o", "*")

    def test_round_trip_exhaustive(self):
        from permpat import all_perms

        for n in range(1, 6):
            for beta in all_perms(n):
                assert last_entry_decoding(last_entry_encoding(beta)) == beta

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            last_entry_encoding(())

    def test_reflection_spot(self):
        # encodings incomparable labeled-wise even though 21 embeds in 231
        a = last_entry_encoding((2, 1))       # body (1,), label (*,)
        b = last_entry_encoding((2, 3, 1))    # body (1, 2), labels (*, *)
        assert a.labels == (FILLED,)
        assert b.labels == (FILLED, FILLED)
        assert labeled_contains(a, b, TWO_ANTICHAIN)
        assert contains((2, 1), (2, 3, 1))


class TestStripZeroLabels:
    def test_strip(self):
        p = LabeledPermutation((3, 1, 4, 2), (0, FILLED, 0, HOLLOW))
        out = strip_zero_labels(p, 0)
        assert out.perm == (1, 2) and out.labels == (FILLED, HOLLOW)

    def test_preserves_containment_spot(self):
        l0 = TWO_ANTICHAIN.adjoin_minimum(0)
        s = LabeledPermutation((2, 1), (0, FILLED))
        p = LabeledPermutation((3, 1, 2), (HOLLOW, HOLLOW, FILLED))
        assert labeled_contains(s, p, l0)
        assert labeled_contains(
            strip_zero_labels(s, 0), strip_zero_labels(p, 0), TWO_ANTICHAIN
        )


class TestCompassEncoding:
    def test_direction_anchor(self):
        p = constant_labels((5, 7, 1, 8, 3, 4, 6, 9, 2), FILLED)
        image = compass_encoding(p, 6)
        assert image.perm == (4, 6, 1, 7, 3, 5, 8, 2)
        assert tuple(lab[2] for lab in image.labels) == (
            "se", "se", "ne", "se", "ne", "sw", "sw", "nw"
        )

    def test_round_trip(self):
        from permpat import all_perms

        for pi in all_perms(4):
            for a in range(1, 5):
                p = LabeledPermutation(pi, (HOLLOW, FILLED, FILLED, HOLLOW))
                decoded, back = compass_decoding(compass_encoding(p, a))
                assert decoded == p and back == a

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            compass_encoding(constant_labels((1,), FILLED), 1)

    def test_rejects_bad_position(self):
        with pytest.raises(IndexError):
            compass_encoding(constant_labels((2, 1), FILLED), 3)

    def test_decode_rejects_inconsistent_image(self):
        bad = LabeledPermutation(
            (1, 2), (((FILLED, FILLED, "se")), (FILLED, HOLLOW, "se"))
        )
        with pytest.raises(ValueError):
            compass_decoding(bad)

    def test_poset_structure(self):
        cp = compass_poset(TWO_ANTICHAIN)
        assert len(cp.elements) == 16  # 2 labels x 2 labels x 4 directions
        assert cp.leq((HOLLOW, FILLED, "se"), (HOLLOW, FILLED, "se"))
        assert not cp.leq((HOLLOW, FILLED, "se"), (HOLLOW, FILLED, "ne"))


class TestLabeledSymmetry:
    def test_inverse_transport(self):
        p = LabeledPermutation((2, 1, 3), ("a", "b", "c"))
        assert apply_symmetry_labeled(p, "inverse").labels == ("b", "a", "c")

    def test_rc_transport(self):
        p = LabeledPermutation((2, 1, 3), ("a", "b", "c"))
        q = apply_symmetry_labeled(p, "reverse-complement")
        assert q.perm == (1, 3, 2)
        assert q.labels == ("c", "b", "a")

    def test_involution(self):
        p = LabeledPermutation((3, 1, 2), ("a", "b", "c"))
        for name in ("inverse", "reverse-complement"):
            assert apply_symmetry_labeled(apply_symmetry_labeled(p, name), name) == p


class TestLabeledFamilyIncomparability:
    def test_first_two_members_incomparable_both_ways(self):
        m1 = labeled_antichain_member(1)
        m2 = labeled_antichain_member(2)
        assert not labeled_contains(m1, m2, TWO_ANTICHAIN)
        assert not labeled_contains(m2, m1, TWO_ANTICHAIN)
        # the labels are doing the work: the underlying patterns nest
        assert contains(m1.perm, m2.perm)
