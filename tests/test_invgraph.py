"""Inversion graphs: construction, isomorphism search, structural
predicates, primality, and permutation preimages."""
import itertools
import json
import random

import pytest

from permpat import (
    FinitePoset,
    Graph,
    SizeGuardError,
    all_isomorphisms,
    all_perms,
    automorphisms,
    classify,
    cycle_graph,
    find_isomorphism,
    graph_from_json,
    graph_to_json,
    has_long_induced_cycle,
    induced_embeds,
    inverse,
    inversion_graph,
    is_bipartite,
    is_cograph,
    is_connected,
    is_forest,
    is_isomorphic,
    is_linear_forest,
    is_prime,
    is_simple,
    path_graph,
    preimages,
    rc_inverse,
    reverse_complement,
    symmetry_automorphism_maps,
    to_dot,
)


def brute_force_prime(g: Graph) -> bool:
    """Independent primality oracle: scan every vertex subset for a
    nontrivial module (1 < |M| < n, outside vertices uniform on M)."""
    n = g.n
    if n <= 2:
        return True
    vertices = list(range(1, n + 1))
    for size in range(2, n):
        for module in itertools.combinations(vertices, size):
            mset = set(module)
            if all(
                len({g.has_edge(u, v) for v in module}) == 1
                for u in vertices
                if u not in mset
            ):
                return False
    return True


class TestGraphBasics:
    def test_inversion_graph_edges(self):
        g = inversion_graph((2, 5, 4, 1, 3))
        assert g.n == 5
        assert g.edges == frozenset(
            {(1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)}
        )

    def test_identity_has_no_edges(self):
        assert inversion_graph((1, 2, 3, 4)).edges == frozenset()

    def test_decreasing_is_complete(self):
        g = inversion_graph((4, 3, 2, 1))
        assert len(g.edges) == 6

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 3)}))
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 1)}))

    def test_degrees(self):
        g = path_graph(4)
        assert g.degree(1) == 1 and g.degree(2) == 2
        assert g.degree_sequence() == (1, 1, 2, 2)

    def test_labels(self):
        g = inversion_graph((2, 1), ("x", "y"))
        assert g.label(1) == "x" and g.label(2) == "y"

    def test_json_round_trip(self):
        g = inversion_graph((2, 5, 4, 1, 3))
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_text_round_trip_of_tuple_labels(self):
        g = inversion_graph((2, 1), (("o", "o", "sw"), ("*", "o", "ne")))
        h = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        assert h == g

    def test_dot_is_deterministic(self):
        g = cycle_graph(4)
        assert to_dot(g) == to_dot(g)
        assert "1 -- 2;" in to_dot(g)


class TestEmbeddingsAndIsomorphism:
    def test_pattern_graph_embeds(self):
        big = inversion_graph((3, 6, 2, 8, 5, 7, 1, 4))
        small = inversion_graph((2, 5, 4, 1, 3))
        assert induced_embeds(small, big) is not None

    def test_path_embeds_into_path(self):
        w = induced_embeds(path_graph(2), path_graph(3))
        assert w is not None and len(w) == 2

    def test_no_induced_p3_in_triangle(self):
        assert induced_embeds(path_graph(3), inversion_graph((3, 2, 1))) is None

    def test_isomorphism(self):
        assert is_isomorphic(inversion_graph((2, 4, 1, 3)), path_graph(4))
        assert not is_isomorphic(path_graph(4), cycle_graph(4))
        f = find_isomorphism(inversion_graph((2, 4, 1, 3)), path_graph(4))
        assert f is not None

    def test_labeled_isomorphism_needs_matching_labels(self):
        a = inversion_graph((2, 1), ("x", "y"))
        b = inversion_graph((2, 1), ("y", "x"))
        maps = all_isomorphisms(a, b)
        assert maps == [(2, 1)]

    def test_automorphism_counts(self):
        assert len(automorphisms(inversion_graph((3, 2, 1)))) == 6
        assert len(automorphisms(inversion_graph((2, 4, 1, 3)))) == 2
        assert len(automorphisms(cycle_graph(4))) == 8

    def test_automorphisms_guard(self):
        with pytest.raises(SizeGuardError):
            automorphisms(path_graph(11))
        assert automorphisms(path_graph(11), max_n=11)


def brute_embeddings(h, g, leq):
    """Every injective vertex map h -> g, as a tuple of images, that keeps
    edges and non-edges and whose labels satisfy ``leq`` (when both graphs
    carry labels), by a sweep over ``itertools.permutations``."""
    pairs = [(u - 1, v - 1, h.has_edge(u, v)) for u, v in itertools.combinations(range(1, h.n + 1), 2)]
    adj = [[g.has_edge(u, v) for v in range(g.n + 1)] for u in range(g.n + 1)]
    use_labels = h.labels is not None and g.labels is not None
    return [
        f
        for f in itertools.permutations(range(1, g.n + 1), h.n)
        if all(adj[f[u]][f[v]] == edge for u, v, edge in pairs)
        and (not use_labels or all(leq(h.label(v), g.label(f[v - 1])) for v in range(1, h.n + 1)))
    ]


SMALL_PERMS = [pi for n in range(6) for pi in all_perms(n)]
LABEL_CHAIN = FinitePoset.chain(("lo", "hi"))


def small_graphs(labeled):
    """The inversion graph of every permutation of length <= 5, with
    seeded labels from ``LABEL_CHAIN`` when ``labeled`` is set."""
    rng = random.Random(5103)
    if not labeled:
        return [inversion_graph(pi) for pi in SMALL_PERMS]
    return [
        inversion_graph(pi, tuple(rng.choice(LABEL_CHAIN.elements) for _ in pi))
        for pi in SMALL_PERMS
    ]


class TestSearchAgainstPermutations:
    """Embedding and isomorphism share one backtracker; both must agree
    with a sweep over every vertex map.  Embeddings run every inversion
    graph on at most 4 vertices into every one on at most 5; isomorphisms
    run over all pairs on at most 5 vertices."""

    @pytest.mark.parametrize("labels", ["none", "identity", "poset"])
    def test_induced_embeds(self, labels):
        graphs = small_graphs(labels != "none")
        poset = LABEL_CHAIN if labels == "poset" else None
        leq = LABEL_CHAIN.leq if labels == "poset" else (lambda a, b: a == b)
        found = 0
        for h in graphs:
            if h.n > 4:
                continue
            for g in graphs:
                maps = brute_embeddings(h, g, leq)
                w = induced_embeds(h, g, poset)
                assert (w is None) == (not maps), (h, g)
                assert w is None or w in maps, (h, g, w)
                found += w is not None
        assert found > 0

    @pytest.mark.parametrize("labeled", [False, True])
    def test_all_isomorphisms(self, labeled):
        graphs = small_graphs(labeled)
        for g in graphs:
            for h in graphs:
                if g.n != h.n:
                    continue
                got = all_isomorphisms(g, h)
                if len(g.edges) != len(h.edges):
                    assert got == [], (g, h)
                    continue
                expected = brute_embeddings(g, h, lambda a, b: a == b)
                assert sorted(got) == expected, (g, h)
                first = find_isomorphism(g, h)
                assert (first is None) == (not expected), (g, h)
                assert first is None or first in expected, (g, h, first)


class TestStructuralPredicates:
    def test_connectivity(self):
        assert is_connected(inversion_graph((2, 4, 1, 3)))
        assert not is_connected(inversion_graph((1, 2)))
        assert not is_connected(Graph(0, frozenset()))

    def test_flags_on_path(self):
        g = path_graph(4)
        assert is_bipartite(g) and is_forest(g) and is_linear_forest(g)
        assert not is_cograph(g)

    def test_flags_on_cycle(self):
        g = cycle_graph(4)
        assert is_bipartite(g) and not is_forest(g)
        assert is_cograph(g)

    def test_long_cycle_detection(self):
        assert has_long_induced_cycle(cycle_graph(5), 5)
        assert has_long_induced_cycle(cycle_graph(6), 5)
        assert not has_long_induced_cycle(cycle_graph(4), 5)
        assert not has_long_induced_cycle(path_graph(7), 5)

    def test_classify_keys(self):
        flags = classify(inversion_graph((2, 4, 1, 3)))
        assert flags["is_connected"] and flags["is_path"] and flags["is_prime"]
        assert not flags["is_cycle"]


class TestPrimality:
    def test_conventions(self):
        assert is_prime(Graph(0, frozenset()))
        assert is_prime(Graph(1, frozenset()))
        assert is_prime(Graph(2, frozenset()))  # vacuous below 3 vertices
        assert is_prime(path_graph(4))
        assert not is_prime(cycle_graph(4))  # opposite corners form a module
        assert is_prime(cycle_graph(5))
        assert not is_prime(inversion_graph((3, 2, 1)))  # complete graphs split

    def test_brute_force_cross_check_all_small_graphs(self):
        for n in range(0, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for bits in itertools.product((False, True), repeat=len(pairs)):
                g = Graph(n, frozenset(e for e, keep in zip(pairs, bits) if keep))
                assert is_prime(g) == brute_force_prime(g), g

    def test_prime_iff_simple_for_inversion_graphs(self):
        for n in range(2, 7):
            for pi in all_perms(n):
                assert is_prime(inversion_graph(pi)) == is_simple(pi), pi


class TestPreimages:
    def test_path_preimages(self):
        assert preimages(path_graph(4), 4) == {(2, 4, 1, 3), (3, 1, 4, 2)}

    def test_triangle_preimages(self):
        assert preimages(inversion_graph((3, 2, 1)), 3) == {(3, 2, 1)}

    def test_cycle_has_no_preimage(self):
        assert preimages(cycle_graph(5), 5) == set()

    def test_wrong_size_is_empty(self):
        assert preimages(path_graph(4), 5) == set()

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            preimages(path_graph(9), 9)

    def test_symmetry_maps_are_automorphisms(self):
        for n in range(2, 6):
            for sigma in all_perms(n):
                auts = set(automorphisms(inversion_graph(sigma)))
                for name, vmap in symmetry_automorphism_maps(sigma).items():
                    assert vmap in auts, (sigma, name)

    def test_four_preimages_spot(self):
        sigma = (2, 4, 1, 3)
        expected = {sigma, inverse(sigma), reverse_complement(sigma), rc_inverse(sigma)}
        assert preimages(inversion_graph(sigma), 4) == expected
