"""Core permutation operations: parsing, containment, symmetries, sums,
intervals, simplicity, and the substitution decomposition."""
import itertools
import random

import pytest

from permpat import (
    TWO_ANTICHAIN,
    FinitePoset,
    LabeledPermutation,
    SizeGuardError,
    SubstitutionTree,
    all_patterns,
    all_perms,
    apply_symmetry,
    avoids,
    compass_poset,
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

    @pytest.mark.parametrize("values", [(2.0, 1.0), (1, 2.0), (True,), (False, True), (2, True)])
    def test_check_perm_rejects_entries_that_are_not_ints(self, values):
        # each sorts to values equal to 1..n, so only the type tells them apart
        with pytest.raises(ValueError, match="must be ints"):
            pm.check_perm(values)

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


def _quadratic_slot_bounds(sigma):
    """``pm._slot_bounds`` by a scan over every earlier slot, O(k²)."""
    k = len(sigma)
    lower = [-1] * k
    upper = [-1] * k
    for j in range(k):
        lo_val, hi_val = 0, k + 1
        for i in range(j):
            if lo_val < sigma[i] < sigma[j]:
                lo_val, lower[j] = sigma[i], i
            if sigma[j] < sigma[i] < hi_val:
                hi_val, upper[j] = sigma[i], i
    return lower, upper


def _recursive_witness(sigma, pi, fits=None):
    """The containment search as a recursion once per pattern entry,
    through a closure made per call, over quadratic slot bounds: the
    reference that the loop in ``pm._witness`` must agree with, ``None``
    included."""
    k, n = len(sigma), len(pi)
    if k == 0:
        return ()
    if k > n:
        return None
    lower, upper = _quadratic_slot_bounds(sigma)
    chosen = [0] * k

    def dfs(j, start):
        if j == k:
            return True
        lo = pi[chosen[lower[j]]] if lower[j] >= 0 else 0
        hi = pi[chosen[upper[j]]] if upper[j] >= 0 else n + 1
        for pos in range(start, n - (k - j) + 1):
            v = pi[pos]
            if lo < v < hi and (fits is None or fits(j, pos)):
                chosen[j] = pos
                if dfs(j + 1, pos + 1):
                    return True
        return False

    return tuple([pos + 1 for pos in chosen]) if dfs(0, 0) else None


def _first_occurrence(sigma, pi):
    """Brute force: the first 1-based index tuple, in lexicographic order,
    whose entries of ``pi`` reduce to ``sigma``, or ``None``."""
    for idx in itertools.combinations(range(len(pi)), len(sigma)):
        if reduce_sequence([pi[i] for i in idx]) == sigma:
            return tuple([i + 1 for i in idx])
    return None


def _seeded_pairs(seed, count):
    """``count`` (sigma, pi, positions) triples with |sigma| <= 8 and
    |pi| <= 30, in three kinds taken in turn: sigma carved out of a uniform
    pi at ``positions``, so present; a sigma that contains 321 in a pi that
    is a union of two increasing sequences, so absent (``positions`` None);
    and a uniform sigma in a uniform pi (``positions`` None)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, k = rng.randint(8, 30), rng.randint(1, 8)
        pi = tuple(rng.sample(range(1, n + 1), n))
        if i % 3 == 0:
            positions = sorted(rng.sample(range(n), k))
            out.append((reduce_sequence([pi[p] for p in positions]), pi, positions))
        elif i % 3 == 1:
            sigma = ()
            while not any(a > b > c for a, b, c in itertools.combinations(sigma, 3)):
                sigma = tuple(rng.sample(range(1, max(k, 3) + 1), max(k, 3)))
            size = rng.randint(0, n)
            spots = set(rng.sample(range(n), size))
            values = set(rng.sample(range(1, n + 1), size))
            first, second = iter(sorted(values)), iter(sorted(set(range(1, n + 1)) - values))
            out.append((sigma, tuple([next(first if pos in spots else second) for pos in range(n)]), None))
        else:
            out.append((tuple(rng.sample(range(1, k + 1), k)), pi, None))
    return out


#: The compass poset the benchmark's labeled search uses: compass labels
#: over the two-element chain.
COMPASS = compass_poset(FinitePoset.chain(("o", "*")))


class TestWitnessLoop:
    """The containment search is one loop over the slot being filled, and
    the recursive search :func:`_recursive_witness` is its oracle."""

    def test_slot_bounds_match_the_quadratic_scan(self):
        sigmas = list(perms_up_to(6))
        rng = random.Random(2201)
        for _ in range(60):
            k = rng.randint(7, 80)
            sigmas.append(tuple(rng.sample(range(1, k + 1), k)))
        for sigma in sigmas:
            assert pm._slot_bounds(sigma) == _quadratic_slot_bounds(sigma), sigma

    def test_seeded_pairs_match_the_recursion(self):
        for i, (sigma, pi, positions) in enumerate(_seeded_pairs(2202, 900)):
            expected = _recursive_witness(sigma, pi)
            assert containment_witness(sigma, pi) == expected, (sigma, pi)
            assert pm._witness(sigma, pi, None, pm._slot_bounds(sigma)) == expected, (sigma, pi)
            if positions is not None:
                # the least witness is no later than the carved occurrence
                assert expected is not None and expected <= tuple([p + 1 for p in positions])
            elif i % 3 == 1:
                assert expected is None, (sigma, pi)

    @pytest.mark.parametrize("poset", [TWO_ANTICHAIN, COMPASS], ids=["two-antichain", "compass"])
    def test_labeled_pairs_match_the_recursion(self, poset):
        rng = random.Random(f"2204/{len(poset)}")
        for sigma, pi, positions in _seeded_pairs(2204, 600):
            plabels = tuple([rng.choice(poset.elements) for _ in pi])
            if positions is not None and rng.random() < 0.75:
                # the carved occurrence carries the text's own labels
                slabels = tuple([plabels[p] for p in positions])
            else:
                slabels = tuple([rng.choice(poset.elements) for _ in sigma])
            s, p = LabeledPermutation(sigma, slabels), LabeledPermutation(pi, plabels)
            fits = lambda j, pos: poset.leq(slabels[j], plabels[pos])
            assert labeled_containment_witness(s, p, poset) == _recursive_witness(sigma, pi, fits), (s, p)

    def test_every_position_combination_up_to_eight(self):
        pairs = [(sigma, pi) for pi in perms_up_to(5) for sigma in perms_up_to(len(pi))]
        rng = random.Random(2205)
        for n in (6, 7, 8):
            for _ in range(30):
                pi = tuple(rng.sample(range(1, n + 1), n))
                pairs += [(sigma, pi) for k in (3, 4) for sigma in all_perms(k)]
                pairs += [(tuple(rng.sample(range(1, k + 1), k)), pi) for k in (5, 6) for _ in range(4)]
        for sigma, pi in pairs:
            expected = _first_occurrence(sigma, pi)
            assert containment_witness(sigma, pi) == expected, (sigma, pi)
            assert _recursive_witness(sigma, pi) == expected, (sigma, pi)


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

    @pytest.mark.parametrize(
        "skeleton, blocks",
        [((1, 2), [(1, 1), (1,)]), ((1, 1), [(1,), (1,)]), ((2, 1), [(1,), (True,)]), ((1,), [(0,)])],
    )
    def test_inflate_refuses_non_permutations(self, skeleton, blocks):
        with pytest.raises(ValueError, match="permutation"):
            inflate(skeleton, blocks)

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

    @pytest.mark.parametrize("values", [(2, 3), (0, 1), (3, 1, 2, 2), (1.0, 2.0), (True,)])
    def test_tree_refuses_non_permutations(self, values):
        with pytest.raises(ValueError, match="permutation"):
            decompose_tree(values)


class TestTreeDeeperThanRecursionLimit:
    def test_builds_and_evaluates_back(self):
        pi, shape = (1,), "leaf"  # 1 - (1 + (1 - ...)): one tree level per entry
        for k in range(1999):
            pi = (skew_sum if k % 2 == 0 else direct_sum)((1,), pi)
            shape = f"{'-' if k % 2 == 0 else '+'}[leaf, {shape}]"
        # the dataclass's own ==, hash and repr recurse, so the tree itself
        # is not compared
        tree = decompose_tree(pi)
        assert tree.evaluate() == pi
        assert tree.shape() == shape
        assert tree.leaf_count() == 2000
        assert [node.kind for node, _ in tree.preorder()[:4]] == ["minus", "leaf", "plus", "leaf"]


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
