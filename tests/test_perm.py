"""Core permutation operations: parsing, containment, symmetries, sums,
intervals, simplicity, and the substitution decomposition."""
import random

import pytest

from permpat import (
    TWO_ANTICHAIN,
    SizeGuardError,
    SubstitutionTree,
    all_patterns,
    all_perms,
    apply_symmetry,
    avoids,
    components,
    constant_labels,
    containment_witness,
    contains,
    decompose_tree,
    delete_entry,
    direct_sum,
    format_perm,
    inflate,
    intervals,
    inverse,
    is_simple,
    is_sum_indecomposable,
    labeled_containment_witness,
    one_point_deletions,
    one_point_extensions,
    parse_perm,
    patterns_of_length,
    perms_up_to,
    rc_inverse,
    reduce_sequence,
    reverse_complement,
    simple_perms,
    skew_sum,
    symmetry_class,
)
from permpat import perm as pm

ANCHOR_TEXT = (4, 3, 2, 6, 7, 9, 1, 8, 5)


class TestParsing:
    def test_whitespace_and_commas(self):
        assert parse_perm("4 7 9 8 3 2 1 5 6") == (4, 7, 9, 8, 3, 2, 1, 5, 6)
        assert parse_perm("3,1,4,2") == (3, 1, 4, 2)

    def test_compact_digits(self):
        assert parse_perm("432679185") == ANCHOR_TEXT

    def test_empty(self):
        assert parse_perm("") == ()
        assert parse_perm("   ") == ()

    def test_single_value(self):
        assert parse_perm("1") == (1,)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            parse_perm("1 3")
        with pytest.raises(ValueError):
            parse_perm("1 1 2")

    def test_format_round_trip(self):
        for pi in all_perms(4):
            assert parse_perm(format_perm(pi)) == pi
        assert format_perm(()) == ""


class TestReduction:
    def test_rationals(self):
        assert reduce_sequence((3, -1, 3.14159, 2.71828)) == (3, 1, 4, 2)

    def test_already_reduced(self):
        assert reduce_sequence((2, 4, 1, 3)) == (2, 4, 1, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            reduce_sequence((1, 2, 1))

    def test_empty(self):
        assert reduce_sequence(()) == ()


class TestContainment:
    def test_witness_anchor(self):
        w = containment_witness((3, 2, 5, 1, 4), ANCHOR_TEXT)
        assert w == (1, 2, 4, 7, 9)
        assert reduce_sequence([ANCHOR_TEXT[i - 1] for i in w]) == (3, 2, 5, 1, 4)

    def test_avoidance_anchor(self):
        assert avoids(ANCHOR_TEXT, [(5, 4, 3, 2, 1)])
        assert not avoids(ANCHOR_TEXT, [(5, 4, 3, 2, 1), (3, 2, 5, 1, 4)])
        assert not contains((5, 4, 3, 2, 1), ANCHOR_TEXT)

    def test_empty_pattern_in_everything(self):
        assert contains((), ()) and contains((), (1,)) and contains((), ANCHOR_TEXT)

    def test_longer_pattern_never_contained(self):
        assert not contains((1, 2), (1,))

    def test_witness_is_lex_least(self):
        # 12 occurs in 1 3 2 at indices (1,2) and (1,3); lex-least wins
        assert containment_witness((1, 2), (1, 3, 2)) == (1, 2)

    def test_patterns_of_length(self):
        assert patterns_of_length((2, 4, 1, 3), 2) == {(1, 2), (2, 1)}
        assert patterns_of_length((1, 2, 3), 3) == {(1, 2, 3)}
        with pytest.raises(ValueError):
            patterns_of_length((1, 2), 3)

    def test_all_patterns(self):
        assert all_patterns((2, 1)) == {(), (1,), (2, 1)}


class TestWitnessCap:
    TEXT = tuple(range(1, 1301))

    def test_long_pattern_refused_before_any_search(self, monkeypatch):
        def no_search(sigma):
            raise AssertionError("the search started")

        monkeypatch.setattr(pm, "_slot_bounds", no_search)
        sigma = tuple(range(1, pm.WITNESS_MAX_K + 2))
        searches = {
            "contains": lambda: contains(sigma, self.TEXT),
            "containment_witness": lambda: containment_witness(sigma, self.TEXT),
            "labeled_containment_witness": lambda: labeled_containment_witness(
                constant_labels(sigma, "o"), constant_labels(self.TEXT, "o"), TWO_ANTICHAIN
            ),
        }
        for name, search in searches.items():
            with pytest.raises(SizeGuardError) as info:
                search()
            assert (info.value.actual, info.value.limit) == (len(sigma), 500), name

    def test_pattern_at_the_cap_is_searched(self):
        sigma = tuple(range(1, pm.WITNESS_MAX_K + 1))
        assert containment_witness(sigma, self.TEXT) == sigma
        assert not contains(sigma[::-1], self.TEXT[:600])

    def test_pattern_longer_than_the_text_is_absent_with_no_refusal(self):
        assert containment_witness(self.TEXT, (2, 1)) is None


class TestSymmetries:
    def test_inverse(self):
        assert inverse((2, 3, 1, 4)) == (3, 1, 2, 4)

    def test_reverse_complement(self):
        assert reverse_complement((2, 3, 1, 4)) == (1, 4, 2, 3)

    def test_rc_inverse(self):
        assert rc_inverse((2, 3, 1, 4)) == (1, 3, 4, 2)

    def test_apply_by_name(self):
        pi = (2, 3, 1, 4)
        assert apply_symmetry(pi, "inverse") == inverse(pi)
        assert apply_symmetry(pi, "reverse-complement") == reverse_complement(pi)
        assert apply_symmetry(pi, "rc-inverse") == rc_inverse(pi)
        with pytest.raises(ValueError):
            apply_symmetry(pi, "transpose")

    def test_symmetry_class_sizes(self):
        for pi in all_perms(4):
            assert len(symmetry_class(pi)) in (1, 2, 4)
        assert symmetry_class((1,)) == {(1,)}

    def test_containment_respected(self):
        # symmetries are containment isomorphisms
        sigma, pi = (2, 4, 1, 3), (3, 6, 2, 8, 5, 7, 1, 4)
        assert contains(sigma, pi)
        for name in ("inverse", "reverse-complement", "rc-inverse"):
            assert contains(apply_symmetry(sigma, name), apply_symmetry(pi, name))


class TestSumsAndComponents:
    def test_direct_and_skew(self):
        assert direct_sum((4, 5, 3, 1, 2), (2, 3, 4, 1)) == (4, 5, 3, 1, 2, 7, 8, 9, 6)
        assert skew_sum((2, 1), (1, 2)) == (4, 3, 1, 2)

    def test_components_anchor(self):
        assert components((4, 5, 3, 1, 2, 7, 8, 9, 6), "direct") == [
            (4, 5, 3, 1, 2),
            (2, 3, 4, 1),
        ]
        # skew components are skew-indecomposable, so 21 splits into 1, 1
        assert components((4, 3, 1, 2), "skew") == [(1,), (1,), (1, 2)]

    def test_indecomposable(self):
        assert is_sum_indecomposable((2, 4, 1, 3))
        assert not is_sum_indecomposable((1, 2))

    def test_empty(self):
        assert components((), "direct") == []


class TestDeletionsExtensions:
    def test_delete_entry(self):
        assert delete_entry((4, 7, 9, 8, 3, 2, 1, 5, 6), 3) == (4, 7, 8, 3, 2, 1, 5, 6)
        assert delete_entry((2, 4, 1, 3), 2) == (2, 1, 3)
        with pytest.raises(IndexError):
            delete_entry((1,), 2)

    def test_deletions_are_patterns(self):
        pi = (2, 4, 1, 3)
        assert set(one_point_deletions(pi)) == patterns_of_length(pi, 3)

    def test_extensions_invert_deletion(self):
        for pi in all_perms(3):
            for ext in one_point_extensions(pi):
                assert len(ext) == 4
                assert pi in set(one_point_deletions(ext))
        # converse: every extension arises
        for ext in all_perms(4):
            for pi in set(one_point_deletions(ext)):
                assert ext in one_point_extensions(pi)


class TestIntervalsAndSimplicity:
    def test_intervals_anchor(self):
        assert intervals((4, 7, 9, 8, 3, 2, 1, 5, 6)) == [
            (2, 4),
            (3, 4),
            (5, 6),
            (5, 7),
            (6, 7),
            (8, 9),
        ]

    def test_no_intervals_in_simple(self):
        assert intervals((2, 4, 1, 3)) == []
        assert intervals((3, 1, 4, 2)) == []

    def test_simplicity_conventions(self):
        assert not is_simple((1,))
        assert is_simple((1, 2)) and is_simple((2, 1))
        assert not is_simple((1, 2, 3))
        assert is_simple((2, 4, 1, 3)) and is_simple((3, 1, 4, 2))

    def test_simple_counts(self):
        expected = {2: 2, 3: 0, 4: 2, 5: 6, 6: 46, 7: 338}
        for n, count in expected.items():
            assert len(list(simple_perms(n))) == count

    def test_is_simple_matches_intervals(self):
        # the early-exit scan against the full interval list it stops short of
        for pi in perms_up_to(8):
            assert is_simple(pi) == (len(pi) >= 2 and not intervals(pi)), pi
        rng = random.Random(8)
        verdicts = set()
        for _ in range(3000):
            n = rng.randint(9, 16)
            pi = tuple(rng.sample(range(1, n + 1), n))
            verdicts.add(is_simple(pi))
            assert is_simple(pi) == (not intervals(pi)), pi
        assert verdicts == {False, True}


class TestInflationAndTrees:
    def test_inflate_anchor(self):
        assert inflate((2, 4, 1, 3), [(1,), (1, 3, 2), (3, 2, 1), (1, 2)]) == (
            4, 7, 9, 8, 3, 2, 1, 5, 6
        )

    def test_inflate_block_count_mismatch(self):
        with pytest.raises(ValueError):
            inflate((1, 2), [(1,)])

    def test_tree_shape_anchor(self):
        tree = decompose_tree((4, 7, 9, 8, 3, 2, 1, 5, 6))
        assert tree.shape() == (
            "2413[leaf, +[leaf, -[leaf, leaf]], -[leaf, leaf, leaf], +[leaf, leaf]]"
        )
        assert tree.evaluate() == (4, 7, 9, 8, 3, 2, 1, 5, 6)
        assert tree.leaf_count() == 9

    def test_tree_of_monotone(self):
        assert decompose_tree((1, 2, 3)).shape() == "+[leaf, leaf, leaf]"
        assert decompose_tree((3, 2, 1)).shape() == "-[leaf, leaf, leaf]"
        assert decompose_tree((1,)).shape() == "leaf"

    def test_trees_share_one_leaf(self):
        leaves = decompose_tree((2, 4, 1, 3)).children + decompose_tree((1, 3, 2)).children[:1]
        assert all(node is leaves[0] for node in leaves)

    def test_tree_rejects_empty(self):
        with pytest.raises(ValueError):
            decompose_tree(())


def _oracle_components(pi, direction):
    """Slices between the cuts where a prefix holds the lowest (direct) or
    highest (skew) values, each reduced by sorting."""
    n = len(pi)
    cuts = [0]
    for i in range(1, n + 1):
        low = 1 if direction == "direct" else n - i + 1
        if set(pi[:i]) == set(range(low, low + i)):
            cuts.append(i)
    return [reduce_sequence(pi[a:b]) for a, b in zip(cuts, cuts[1:])]


def _oracle_tree(pi):
    """The substitution tree built from the maximal intervals, found by
    filtering every proper interval, with blocks reduced by sorting."""
    if len(pi) == 1:
        return SubstitutionTree("leaf")
    for kind, direction in (("plus", "direct"), ("minus", "skew")):
        parts = _oracle_components(pi, direction)
        if len(parts) >= 2:
            return SubstitutionTree(kind, tuple(_oracle_tree(c) for c in parts))
    ivs = intervals(pi)
    maximal = [
        (a, b) for a, b in ivs if not any((c, d) != (a, b) and c <= a and b <= d for c, d in ivs)
    ]
    covered = {i for a, b in maximal for i in range(a, b + 1)}
    blocks = sorted(maximal + [(i, i) for i in range(1, len(pi) + 1) if i not in covered])
    assert [i for a, b in blocks for i in range(a, b + 1)] == list(range(1, len(pi) + 1))
    skeleton = reduce_sequence([pi[a - 1] for a, _ in blocks])
    children = tuple(_oracle_tree(reduce_sequence(pi[a - 1 : b])) for a, b in blocks)
    return SubstitutionTree("simple", children, skeleton)


def _nested(rng, n, skeletons):
    """A random tree of inflations of simple skeletons and direct/skew sums."""
    if n == 1:
        return (1,)
    fitting = [s for s in skeletons if len(s) <= n]
    if fitting and rng.random() < 0.4:
        skeleton = rng.choice(fitting)
        sizes = _split(rng, n, len(skeleton))
        return inflate(skeleton, [_nested(rng, k, skeletons) for k in sizes])
    out = ()
    for k in _split(rng, n, rng.randint(2, min(n, 3))):
        out = (direct_sum if rng.random() < 0.5 else skew_sum)(out, _nested(rng, k, skeletons))
    return out


def _split(rng, n, parts):
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


class TestTreeAgainstMaximalIntervalFilter:
    def test_every_permutation_up_to_seven(self):
        for n in range(1, 8):
            for pi in all_perms(n):
                assert decompose_tree(pi) == _oracle_tree(pi), pi

    def test_seeded_uniform_and_nested(self):
        rng = random.Random(6)
        skeletons = simple_perms(4) + simple_perms(5) + simple_perms(6)
        cases = [tuple(rng.sample(range(1, n + 1), n)) for n in rng.choices(range(8, 17), k=300)]
        cases += [_nested(rng, n, skeletons) for n in rng.choices(range(8, 41), k=300)]
        for pi in cases:
            tree = decompose_tree(pi)
            assert tree == _oracle_tree(pi), pi
            assert tree.evaluate() == pi

    def test_components_against_sorted_slices(self):
        for n in range(8):
            for pi in all_perms(n):
                for direction in ("direct", "skew"):
                    assert components(pi, direction) == _oracle_components(pi, direction), pi
