"""Class algebra: avoidance classes, basis search, the one-point extension,
closure operators, and class-level enumeration."""
import itertools
import random

import pytest

from permpat import classes as cl
from permpat import perm as pm
from permpat import (
    PermClass,
    SizeGuardError,
    X_MATRIX,
    all_perms,
    avoiding,
    class_from_json,
    class_to_json,
    closure_member,
    closure_member_tree,
    contains,
    decompose_tree,
    delete_entry,
    downward_closure,
    enumerate_grid,
    enumerate_members,
    increasing_oscillations,
    intervals,
    matrix_from_rows_top_first,
    minimal_nonmembers,
    one_point_deletions,
    path_graph,
    perms_up_to,
    plus_one_basis,
    plus_one_member,
    preimages,
    simples_in_class,
    union_basis,
)
from permpat.suite import substitution_closure_by_patterns

SEPARABLE = avoiding((2, 4, 1, 3), (3, 1, 4, 2))
LINEAR = avoiding((3, 2, 1), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))


class TestPermClass:
    def test_member_anchor(self):
        assert avoiding((5, 4, 3, 2, 1)).member((4, 3, 2, 6, 7, 9, 1, 8, 5))
        assert not SEPARABLE.member((2, 4, 1, 3))

    def test_empty_basis_is_everything(self):
        assert PermClass(()).member((3, 1, 2))

    def test_basis_is_minimalized_and_sorted(self):
        c = PermClass(((1, 2, 3), (1, 2)))
        assert c.basis == ((1, 2),)

    def test_empty_perm_membership(self):
        assert SEPARABLE.member(())
        assert not avoiding(()).member(())  # empty pattern forbids everything

    def test_json_round_trip(self):
        c = avoiding((2, 4, 1, 3), (3, 1, 4, 2), name="separable")
        c2 = class_from_json(class_to_json(c))
        assert c2.basis == c.basis and c2.name == "separable"

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"basis": [[1, 2], "21"]},
            {"basis": [[1, 2]], "name": 3},
            [[1, 2]],
            {"basis": [[2.0, 1]]},
            {"basis": [[True]]},
        ],
    )
    def test_json_missing_or_ill_typed_field(self, data):
        with pytest.raises(ValueError, match="a class is an object"):
            class_from_json(data)

    @pytest.mark.parametrize("basis", [((2.0, 1.0),), ((1, 2.0),), ((True,),), ((False, True),)])
    def test_rejects_entries_equal_to_but_not_ints(self, basis):
        with pytest.raises(ValueError, match="must be ints"):
            PermClass(basis)

    def test_member_reuses_the_plans_made_at_construction(self, monkeypatch):
        c = avoiding((3, 2, 1), (2, 4, 1, 3))
        u = union_basis(avoiding((1, 2)), avoiding((2, 1)))

        def no_plan(sigma):
            raise AssertionError("a containment search plan was made again")

        monkeypatch.setattr(pm, "_slot_bounds", no_plan)
        assert c.member((2, 1, 4, 3)) and not c.member((4, 3, 2, 1)) and not c.member((3, 5, 1, 4, 2))
        assert minimal_nonmembers(c.member, 5) == c.basis
        assert closure_member((2, 1, 4, 3, 6, 5), c, "substitution")
        assert not closure_member((2, 5, 3, 1, 4), c, "substitution")
        assert u.member((2, 1)) and not u.member((1, 3, 2))


class TestEnumeration:
    def test_catalan(self):
        av321 = avoiding((3, 2, 1))
        assert [len(enumerate_members(av321, n)) for n in range(1, 7)] == [
            1, 2, 5, 14, 42, 132,
        ]

    def test_schroeder(self):
        assert [len(enumerate_members(SEPARABLE, n)) for n in range(1, 7)] == [
            1, 2, 6, 22, 90, 394,
        ]

    def test_guard_and_override(self):
        with pytest.raises(SizeGuardError):
            enumerate_members(avoiding((1, 2)), 11)
        # the override widens the guard rather than silently truncating
        assert len(enumerate_members(SEPARABLE, 5, max_n=12)) == 90

    def test_sorted_output(self):
        ms = enumerate_members(SEPARABLE, 3)
        assert ms == tuple(sorted(ms))

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="negative") as info:
            enumerate_members(avoiding((2, 1)), -1)
        assert not isinstance(info.value, SizeGuardError)


class TestMinimalNonmembers:
    def test_separable_basis_recovered(self):
        found = minimal_nonmembers(SEPARABLE.member, 5)
        assert found == ((2, 4, 1, 3), (3, 1, 4, 2))

    def test_oscillation_closure_basis(self):
        # downward closure of the increasing oscillations = the linear-forest
        # class: its basis is recovered by bounded search
        pool = [p for n in range(1, 13) for p in increasing_oscillations(n)]

        def oracle(pi):
            return any(contains(pi, big) for big in pool)

        assert minimal_nonmembers(oracle, 5) == (
            (3, 2, 1),
            (2, 3, 4, 1),
            (3, 4, 1, 2),
            (4, 1, 2, 3),
        )

    def test_false_on_empty_perm(self):
        assert minimal_nonmembers(lambda p: False, 4) == ((),)

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="negative"):
            minimal_nonmembers(lambda p: False, -1)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            minimal_nonmembers(SEPARABLE.member, 10)


class TestUnionBasis:
    def test_anchor(self):
        got = union_basis(avoiding((1, 2)), avoiding((2, 1)))
        assert got.basis == ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2))

    def test_bound_respected(self):
        m1 = avoiding((1, 2, 3))
        m2 = avoiding((3, 2, 1))
        for b in union_basis(m1, m2).basis:
            assert len(b) <= 3 + 3

    def test_members_match(self):
        u = union_basis(avoiding((1, 2)), avoiding((2, 1)))
        for n in range(1, 5):
            for pi in enumerate_members(PermClass(()), n):
                expected = avoiding((1, 2)).member(pi) or avoiding((2, 1)).member(pi)
                assert u.member(pi) == expected

    def test_guard_fires_before_any_layer(self, monkeypatch):
        def no_layers(*args):
            raise AssertionError("a layer was built")

        monkeypatch.setattr(cl, "_layers", no_layers)
        with pytest.raises(SizeGuardError) as info:
            union_basis(avoiding((1, 2, 3, 4, 5)), avoiding((5, 4, 3, 2, 1)))
        assert (info.value.actual, info.value.limit) == (10, 9)
        # union_basis takes no max_n, so the refusal gives no hint to raise it
        assert str(info.value).endswith("the cap is fixed")


class TestPlusOne:
    def test_plus_one_member_definition(self):
        c = avoiding((1, 2))
        assert plus_one_member((), c)
        assert plus_one_member((1, 2), c)       # delete either entry
        assert not plus_one_member((1, 2, 3), c)  # every deletion keeps 12

    def test_av12_basis_anchor(self):
        r = plus_one_basis(avoiding((1, 2)))
        assert r.exact and r.searched_to == 6
        assert r.basis_class.basis == (
            (1, 2, 3),
            (2, 1, 4, 3),
            (2, 4, 1, 3),
            (3, 1, 4, 2),
            (3, 4, 1, 2),
        )

    def test_av1_basis(self):
        r = plus_one_basis(avoiding((1,)))
        assert r.exact and r.searched_to == 2
        assert r.basis_class.basis == ((1, 2), (2, 1))

    def test_cap_gives_evidence_only(self):
        r = plus_one_basis(avoiding((3, 2, 1)), cap=5)
        assert not r.exact and r.searched_to == 5

    def test_search_bound_guard(self):
        # m(m+1) = 12 for a length-3 basis pattern: needs a cap
        with pytest.raises(SizeGuardError):
            plus_one_basis(avoiding((3, 2, 1)))


class TestClosures:
    def test_sum_closure(self):
        c = avoiding((1, 2), name=None)
        # components of 2143 are 21, 21 -- both in Av(12)
        assert closure_member((2, 1, 4, 3), c, "sum")
        # 12 itself is 1 + 1, a direct sum of two members
        assert closure_member((1, 2), c, "sum")
        # 231 is sum-indecomposable and contains 12, so it stays out
        assert not closure_member((2, 3, 1), c, "sum")

    def test_skew_closure(self):
        c = avoiding((2, 1))
        assert closure_member((3, 4, 1, 2), c, "skew")
        # 21 itself is the skew sum of two singleton members
        assert closure_member((2, 1), c, "skew")
        # 132 is skew-indecomposable and contains 21, so it stays out
        assert not closure_member((1, 3, 2), c, "skew")

    def test_substitution_closure_matches_tree(self):
        c = avoiding((1, 2), (2, 1))  # only length-1 members
        for pi in [(1,), (1, 2), (2, 1), (2, 4, 1, 3), (1, 3, 2)]:
            expected = substitution_closure_by_patterns(pi, c)
            assert expected == (pi == (1,))
            assert closure_member(pi, c, "substitution") == closure_member_tree(pi, c) == expected

    def test_substitution_closure_of_trivial_class(self):
        c = avoiding((1,))  # no nonempty members
        assert closure_member((), c, "substitution")
        assert not closure_member((1,), c, "substitution")
        assert not closure_member_tree((1,), c)

    def test_separable_closure(self):
        c = avoiding((1, 2), (2, 1))
        assert closure_member((2, 1, 4, 3), c, "separable")
        assert not closure_member((2, 4, 1, 3), c, "separable")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closure_member((1,), SEPARABLE, "transitive")

    @pytest.mark.parametrize("values", [(2, 3), (0, 1), (3, 1, 2, 2), (1.0, 2.0), (True,)])
    def test_refuses_non_permutations(self, values):
        with pytest.raises(ValueError, match="permutation"):
            closure_member(values, SEPARABLE, "substitution")

    def test_tree_deeper_than_recursion_limit(self):
        chain = (1,)  # 1 - (1 + (1 - ...)): one tree level per entry
        for k in range(1999):
            chain = (pm.skew_sum if k % 2 == 0 else pm.direct_sum)((1,), chain)
        c = avoiding((3, 2, 1))
        # its skeletons 12 and 21 are in Av(321), and the chain is separable
        assert closure_member(chain, c, "separable")
        assert closure_member(chain, c, "substitution")
        # the chain's skew root, and its direct-sum child, contain 321
        assert not closure_member(chain, c, "sum")
        assert not closure_member(chain, c, "skew")

    def test_forty_entries_decided_without_enumerating_patterns(self, monkeypatch):
        def no_patterns(*args):
            raise AssertionError("a closure decision enumerated patterns")

        for module in (pm, cl):
            for name in ("patterns_of_length", "all_patterns"):
                monkeypatch.setattr(module, name, no_patterns, raising=False)
        c = avoiding((3, 2, 1))
        run = tuple(range(1, 21))
        nested = pm.skew_sum(run, run)  # 21[1..20, 1..20], in Av(321)
        uniform = list(range(1, 41))
        random.Random(17).shuffle(uniform)
        uniform = tuple(uniform)
        # a simple root whose skeleton contains 321: no closure of Av(321)
        # holds it
        assert contains((3, 2, 1), decompose_tree(uniform).skeleton)
        for kind in cl.CLOSURE_KINDS:
            assert closure_member(nested, c, kind)
            assert not closure_member(uniform, c, kind)


class TestSimplesInClass:
    def test_separable_has_only_trivial_simples(self):
        assert simples_in_class(SEPARABLE, 8) == ((1, 2), (2, 1))

    def test_unrestricted_simples(self):
        assert simples_in_class(PermClass(()), 4) == (
            (1, 2),
            (2, 1),
            (2, 4, 1, 3),
            (3, 1, 4, 2),
        )

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            simples_in_class(PermClass(()), 10)


class TestDownwardClosure:
    def test_patterns_collected(self):
        assert downward_closure([(3, 2, 1)], 2) == ((2, 1),)

    def test_short_members_skipped(self):
        assert downward_closure([(1,), (2, 1, 3)], 2) == ((1, 2), (2, 1))


# ---------------------------------------------------------------------------
# the layer generator against sweeps over every permutation


def _seeded_bases(seed: int, count: int, max_len: int) -> list:
    rng = random.Random(seed)
    bases = []
    for _ in range(count):
        lengths = [rng.randint(1, max_len) for _ in range(rng.randint(1, 3))]
        bases.append(tuple(tuple(rng.sample(range(1, k + 1), k)) for k in lengths))
    return bases


#: The empty basis, a basis holding the empty permutation, Av(1), elements
#: longer than any n swept below, and seeded bases of 1-3 patterns.
EDGE_BASES = [(), ((),), ((1,),), ((2, 4, 1, 3, 5, 7, 6),), ((1, 2), (3, 1, 4, 2, 5, 7, 6))]
SWEEP_BASES = EDGE_BASES + _seeded_bases(4101, 14, 5)


def _minimal_nonmembers_by_sweep(oracle, nmax: int) -> tuple:
    return tuple(
        pi
        for pi in perms_up_to(nmax)
        if not oracle(pi) and all(oracle(d) for d in one_point_deletions(pi))
    )


class TestLayersAgainstSweeps:
    @pytest.mark.parametrize("basis", SWEEP_BASES)
    def test_enumerate_members(self, basis):
        c = PermClass(basis)
        for n in range(0, 7):
            expected = tuple(pi for pi in all_perms(n) if c.member(pi))
            assert enumerate_members(c, n) == expected, n

    @pytest.mark.parametrize("basis", SWEEP_BASES)
    def test_simples_in_class(self, basis):
        c = PermClass(basis)
        for nmax in (0, 1, 6):
            expected = tuple(
                pi
                for pi in perms_up_to(nmax)
                if len(pi) >= 2 and not intervals(pi) and c.member(pi)
            )
            assert simples_in_class(c, nmax) == expected, nmax

    @pytest.mark.parametrize("basis", SWEEP_BASES)
    def test_minimal_nonmembers(self, basis):
        c = PermClass(basis)
        for nmax in (0, 1, 6):
            expected = _minimal_nonmembers_by_sweep(c.member, nmax)
            assert minimal_nonmembers(c.member, nmax) == expected, nmax

    @pytest.mark.parametrize("seed", range(6))
    def test_union_basis(self, seed):
        # basis lengths up to 3 keep the exact search bound at length 6
        pool = EDGE_BASES[:3] + _seeded_bases(4200 + seed, 2, 3)
        rng = random.Random(seed)
        c, d = PermClass(rng.choice(pool)), PermClass(rng.choice(pool))
        bound = c.max_basis_length() + d.max_basis_length()
        expected = _minimal_nonmembers_by_sweep(
            lambda pi: c.member(pi) or d.member(pi), bound
        )
        assert union_basis(c, d).basis == expected

    @pytest.mark.parametrize("basis", SWEEP_BASES)
    def test_plus_one_basis(self, basis):
        c = PermClass(basis)
        r = plus_one_basis(c, cap=5)
        expected = _minimal_nonmembers_by_sweep(
            lambda pi: plus_one_member(pi, c), r.searched_to
        )
        assert r.basis_class.basis == expected


# ---------------------------------------------------------------------------
# the indexed layer generator against the probe-by-probe construction


def _layers_by_probing(oracle, nmax: int):
    """The layer generator without the index: every probed one-point
    deletion of every candidate is built and looked up in the previous
    layer.  As in ``cl._layers``, ``oracle`` is either a callable, with every
    deletion probed and every survivor asked, or a basis whose longest
    element has length k, with the first k entries other than the inserted
    maximum probed and a survivor asked ``pi not in basis`` only at lengths
    up to k."""
    if callable(oracle):
        k = nmax
    else:
        basis, k = oracle, max(map(len, oracle), default=0)
        oracle = lambda pi: pi not in basis
    members = {()} if oracle(()) else set()
    yield members, (set() if members else {()})
    for n in range(1, nmax + 1):
        probe_at = [[i for i in range(1, n + 1) if i != pos + 1][:k] for pos in range(n)]
        prev, members, nonmembers = members, set(), set()
        for parent in prev:
            for pos in range(n):
                pi = parent[:pos] + (n,) + parent[pos:]
                for i in probe_at[pos]:
                    if delete_entry(pi, i) not in prev:
                        break
                else:
                    (members if n > k or oracle(pi) else nonmembers).add(pi)
        yield members, nonmembers


class _RecordingBasis:
    """A basis that answers ``pi in basis`` for tuples and packed bytes
    alike, and records every permutation it is asked about as a tuple."""

    def __init__(self, basis, calls: list):
        self.basis, self.calls = {tuple(b) for b in basis}, calls

    def __iter__(self):
        return iter(self.basis)

    def __contains__(self, pi):
        self.calls.append(tuple(pi))
        return tuple(pi) in self.basis


def _recorded(layers, oracle, nmax):
    """Each layer as a pair of sets of tuples, and every oracle call (or
    basis lookup) as a tuple, in order within each run of calls that share
    a parent (the call with its maximum deleted).  The layers may hold
    packed permutations.

    The runs are compared sorted: parents are taken in the order their
    layer's collection iterates, which for the sets of the probe-by-probe
    construction is hash order, and hash order differs between tuples and
    bytes.  A parent whose calls were not consecutive would form two runs.
    """
    calls = []

    def recording(pi):
        calls.append(tuple(pi))
        return oracle(tuple(pi))

    test = recording if callable(oracle) else _RecordingBasis(oracle, calls)
    layers = [(set(map(tuple, m)), set(map(tuple, x))) for m, x in layers(test, nmax)]
    parent = lambda pi: (len(pi), tuple(v for v in pi if v < len(pi)))
    return layers, sorted(list(run) for _, run in itertools.groupby(calls, parent))


def _index_bases(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [
        tuple(
            tuple(rng.sample(range(1, k + 1), k))
            for k in (rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        )
        for _ in range(count)
    ]


class TestLayerIndex:
    @pytest.mark.parametrize(
        "basis", _index_bases(4301, 12) + [((1, 2),), ((2, 1),), (), ((),)]
    )
    def test_class_oracle_with_basis_probes(self, basis):
        args = (PermClass(basis).basis, 7)
        assert _recorded(cl._layers, *args) == _recorded(_layers_by_probing, *args)

    @pytest.mark.parametrize("basis", _index_bases(4302, 6) + [()])
    def test_member_oracle_with_every_deletion_probed(self, basis):
        args = (PermClass(basis).member, 7)
        assert _recorded(cl._layers, *args) == _recorded(_layers_by_probing, *args)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_that_is_not_downward_closed(self, seed):
        # the index describes the previous layer exactly, so the two agree
        # even when the layers are not the members of a class
        def oracle(pi):
            return len(pi) < 3 or random.Random(f"{seed}:{pi}").random() < 0.9

        args = (oracle, 6)
        assert _recorded(cl._layers, *args) == _recorded(_layers_by_probing, *args)

    def test_class_layers_test_nothing_above_the_longest_basis_element(self, monkeypatch):
        calls, layers = [], cl._layers
        monkeypatch.setattr(
            cl, "_layers", lambda basis, nmax: layers(_RecordingBasis(basis, calls), nmax)
        )
        counts = [len(m) for m, _ in cl._class_layers(avoiding((3, 2, 1)), 8)]
        assert counts == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        # the empty permutation, then every survivor of lengths 1, 2 and 3
        assert sorted(map(len, calls)) == [0, 1, 2, 2] + [3] * 6


# ---------------------------------------------------------------------------
# packed layers: the byte format stays inside the layer generator


def _assert_plain(perms) -> None:
    for pi in perms:
        assert type(pi) is tuple, pi
        assert all(type(v) is int for v in pi), pi


class TestPackedLayers:
    def test_every_consumer_returns_tuples_of_ints(self):
        non_orientable = matrix_from_rows_top_first([[1, 1], [1, -1]])
        results = {
            "enumerate_members": enumerate_members(SEPARABLE, 5),
            "minimal_nonmembers": minimal_nonmembers(SEPARABLE.member, 5),
            "simples_in_class": simples_in_class(PermClass(()), 5),
            "union_basis": union_basis(avoiding((1, 2)), avoiding((3, 2, 1))).basis,
            "plus_one_basis": plus_one_basis(avoiding((1, 2))).basis_class.basis,
            "enumerate_grid monotone": enumerate_grid(X_MATRIX, 5, "monotone"),
            "enumerate_grid layered geometric": enumerate_grid(non_orientable, 4, "geometric"),
            "preimages": preimages(path_graph(4), 4),
        }
        for name, perms in results.items():
            assert perms, name
            _assert_plain(perms)

    def test_packed_deletion_matches_delete_entry(self):
        for pi in perms_up_to(7):
            p = bytes(pi)
            for j in range(len(pi)):
                assert tuple(cl._delete(p, j)) == delete_entry(pi, j + 1), (pi, j)

    @pytest.mark.parametrize("basis", SWEEP_BASES)
    def test_union_and_plus_one_run_no_containment_test(self, basis, monkeypatch):
        c, d = PermClass(basis), avoiding((2, 1))
        # the union sweep stops at length 7; two edge bases would need 9
        bound = c.max_basis_length() + d.max_basis_length()
        union_expected = _minimal_nonmembers_by_sweep(
            lambda pi: c.member(pi) or d.member(pi), bound
        ) if bound <= 7 else None
        m = c.max_basis_length()
        plus_expected = _minimal_nonmembers_by_sweep(
            lambda pi: plus_one_member(pi, c), min(5, m * (m + 1))
        )

        def no_containment(*args):
            raise AssertionError("a containment test ran")

        monkeypatch.setattr(cl, "_witness", no_containment)
        monkeypatch.setattr(PermClass, "member", no_containment)
        if union_expected is not None:
            assert union_basis(c, d).basis == union_expected
        assert plus_one_basis(c, cap=5).basis_class.basis == plus_expected

    def test_length_256_is_refused_before_any_layer(self, monkeypatch):
        calls = []
        with pytest.raises(ValueError, match="255") as info:
            enumerate_members(avoiding((2, 1)), 256, max_n=256)
        assert not isinstance(info.value, SizeGuardError)
        with pytest.raises(ValueError, match="255"):
            next(cl._layers(calls.append, 256))
        assert calls == []

    def test_length_255_still_packs(self):
        assert enumerate_members(avoiding((2, 1)), 255, max_n=255) == (
            tuple(range(1, 256)),
        )
