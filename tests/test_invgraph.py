"""Inversion graphs: construction, isomorphism search, structural
predicates, primality, and permutation preimages."""
import functools
import itertools
import json
import operator
import random

import pytest

from permpat import invgraph as ig

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

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2},
            {"adjacency": [[2], [1]]},
            {"n": "2", "adjacency": [[2], [1]]},
            {"n": 2, "adjacency": [[2]]},
            {"n": 2, "adjacency": [2, 1]},
            {"n": 2, "adjacency": [["2"], [1]]},
            {"n": 2, "adjacency": [[2], [1]], "labels": "ab"},
            [[2], [1]],
        ],
    )
    def test_json_missing_or_ill_typed_field(self, data):
        with pytest.raises(ValueError, match="a graph is an object"):
            graph_from_json(data)

    @pytest.mark.parametrize(
        "data, pair",
        [
            ({"n": 3, "adjacency": [[2], [], []]}, r"\(1, 2\)"),
            ({"n": 3, "adjacency": [[2, 3], [1], [2]]}, r"\(1, 3\)"),
        ],
    )
    def test_json_one_sided_edge_refused(self, data, pair):
        with pytest.raises(ValueError, match=pair + " on one side only"):
            graph_from_json(data)

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


def edge_backtrack(a, b, fits, found):
    """The backtracker the neighbour-mask search replaced: one ``has_edge``
    pair per mapped vertex for each candidate, and degrees from
    ``Graph.degree``.  Same vertex order and candidate order."""
    adeg = [0] + [a.degree(v) for v in range(1, a.n + 1)]
    bdeg = [0] + [b.degree(v) for v in range(1, b.n + 1)]
    order = sorted(range(1, a.n + 1), key=adeg.__getitem__, reverse=True)
    mapping = {}

    def extend(idx):
        if idx == len(order):
            return found(tuple(mapping[v] for v in range(1, a.n + 1)))
        av = order[idx]
        for bv in range(1, b.n + 1):
            if bv in mapping.values() or not fits(av, bv, adeg[av], bdeg[bv]):
                continue
            if all(a.has_edge(av, pa) == b.has_edge(bv, pb) for pa, pb in mapping.items()):
                mapping[av] = bv
                if extend(idx + 1):
                    return True
                del mapping[av]
        return False

    extend(0)


def edge_induced_embeds(h, g, poset=None):
    if h.n > g.n:
        return None
    use_labels = h.labels is not None and g.labels is not None
    leq = operator.eq if poset is None else poset.leq
    maps = []
    edge_backtrack(
        h,
        g,
        lambda hv, gv, hd, gd: gd >= hd
        and (not use_labels or leq(h.label(hv), g.label(gv))),
        lambda m: maps.append(m) or True,
    )
    return maps[0] if maps else None


def edge_all_isomorphisms(g, h):
    if g.n != h.n or len(g.edges) != len(h.edges):
        return []
    use_labels = g.labels is not None and h.labels is not None
    maps = []
    edge_backtrack(
        g,
        h,
        lambda gv, hv, gd, hd: gd == hd and (not use_labels or g.label(gv) == h.label(hv)),
        lambda m: maps.append(m) or False,
    )
    return maps


def relabeled(g, rng):
    """``g`` with its vertices renamed by a seeded permutation."""
    image = list(range(1, g.n + 1))
    rng.shuffle(image)
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[image.index(v)] for v in range(1, g.n + 1))
    return Graph(g.n, frozenset((image[u - 1], image[v - 1]) for u, v in g.edges), labels)


@functools.lru_cache(maxsize=None)
def non_inversion_graphs():
    """Seeded random graphs on 6-8 vertices that are the inversion graph of
    no permutation (``preimages`` is empty)."""
    rng = random.Random(6271)
    out = []
    while len(out) < 30:
        g = random_graph(rng, rng.randint(6, 8))
        if not preimages(g, g.n):
            out.append(g)
    return tuple(out)


def seeded_non_inversion_graphs(labeled):
    """:func:`non_inversion_graphs`, with seeded labels from ``LABEL_CHAIN``
    when ``labeled`` is set."""
    rng = random.Random(1187)
    return [
        Graph(g.n, g.edges, tuple(rng.choice(LABEL_CHAIN.elements) for _ in range(g.n)))
        if labeled
        else g
        for g in non_inversion_graphs()
    ]


class TestMaskSearchAgainstEdgeBacktracker:
    """The neighbour-mask backtracker keeps the search order of the
    ``has_edge`` one, so every first map and every list of maps is the same,
    also on graphs that no permutation produces."""

    @pytest.mark.parametrize("labeled", [False, True])
    def test_first_induced_embedding(self, labeled):
        rng = random.Random(3319)
        graphs = seeded_non_inversion_graphs(labeled)
        found = 0
        for g in graphs:
            for h in (rng.choice(graphs), g.induced(tuple(rng.sample(range(1, g.n + 1), 5)))):
                for poset in (None, LABEL_CHAIN):
                    w = induced_embeds(h, g, poset)
                    assert w == edge_induced_embeds(h, g, poset), (h, g, poset)
                    found += w is not None
        assert found > 0

    @pytest.mark.parametrize("labeled", [False, True])
    def test_isomorphism_lists_and_automorphisms(self, labeled):
        rng = random.Random(8802)
        for g in seeded_non_inversion_graphs(labeled):
            h = relabeled(g, rng)
            maps = all_isomorphisms(g, h)
            assert maps and maps == edge_all_isomorphisms(g, h), (g, h)
            assert find_isomorphism(g, h) == maps[0]
            assert automorphisms(g) == edge_all_isomorphisms(g, g), g


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


def connectivity_first_is_cycle(g):
    """The ``is_cycle`` the degree-first order replaced: a connectivity
    search on every graph with at least 3 vertices, then the degree test."""
    return g.n >= 3 and is_connected(g) and all(g.degree(v) == 2 for v in range(1, g.n + 1))


def connectivity_first_is_path(g):
    """The ``is_path`` the degree-first order replaced: a connectivity
    search, then a union-find, then the degree test."""
    return (
        g.n >= 1
        and is_connected(g)
        and is_forest(g)
        and all(g.degree(v) <= 2 for v in range(1, g.n + 1))
    )


def every_graph(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        yield Graph(n, frozenset(e for e, keep in zip(pairs, bits) if keep))


def brute_long_induced_cycle(g, min_length):
    """Every vertex subset of at least ``min_length`` vertices, each tested
    by the connectivity-first ``is_cycle``."""
    return any(
        connectivity_first_is_cycle(g.induced(sub))
        for k in range(min_length, g.n + 1)
        for sub in itertools.combinations(range(1, g.n + 1), k)
    )


def planted_hole(rng):
    """A cycle on 5-8 random vertices of a graph on up to 9 vertices, with
    random chords (which may break the hole into shorter ones), pendant
    vertices and a few random edges among the remaining vertices."""
    k = rng.randint(5, 8)
    n = rng.randint(k, 9)
    ring = rng.sample(range(1, n + 1), k)
    edges = {frozenset((ring[i], ring[i - 1])) for i in range(k)}
    for _ in range(rng.randint(0, 2)):
        edges.add(frozenset(rng.sample(ring, 2)))
    rest = [v for v in range(1, n + 1) if v not in ring]
    for v in rest:
        if rng.random() < 0.6:
            edges.add(frozenset((v, rng.choice(ring))))
    for u, v in itertools.combinations(rest, 2):
        if rng.random() < 0.3:
            edges.add(frozenset((u, v)))
    return Graph(n, frozenset(tuple(e) for e in edges))


def cycles_and_paths(rng, n):
    """The vertices 1..n shuffled and cut into runs, each run closed into a
    cycle (when it has at least 3 vertices, half the time) or left a path,
    plus one random edge a third of the time: many graphs whose degrees all
    pass while connectivity fails."""
    order = rng.sample(range(1, n + 1), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, 2)))
    edges = set()
    for run in (order[i:j] for i, j in zip([0, *cuts], [*cuts, n])):
        edges.update(frozenset(pair) for pair in zip(run, run[1:]))
        if len(run) >= 3 and rng.random() < 0.5:
            edges.add(frozenset((run[0], run[-1])))
    if rng.random() < 1 / 3:
        edges.add(frozenset(rng.sample(order, 2)))
    return Graph(n, frozenset(tuple(e) for e in edges))


def oracle_flags(g):
    """``classify`` with its path, cycle and linear-forest flags from the
    connectivity-first oracles."""
    return {
        **classify(g),
        "is_path": connectivity_first_is_path(g),
        "is_cycle": connectivity_first_is_cycle(g),
        "is_linear_forest": is_forest(g) and all(g.degree(v) <= 2 for v in range(1, g.n + 1)),
    }


class TestDegreeFirstPredicates:
    def test_every_graph_up_to_five_vertices(self):
        for n in range(0, 6):
            for g in every_graph(n):
                assert ig.is_cycle(g) == connectivity_first_is_cycle(g), g
                assert ig.is_path(g) == connectivity_first_is_path(g), g

    def test_seeded_graphs_of_six_to_eight_vertices(self):
        rng = random.Random(1406)
        seen = set()
        for i in range(2000):
            g = (random_graph, cycles_and_paths)[i % 2](rng, rng.randint(6, 8))
            cycle, path = ig.is_cycle(g), ig.is_path(g)
            assert cycle == connectivity_first_is_cycle(g), g
            assert path == connectivity_first_is_path(g), g
            seen.add((cycle, path))
        assert seen == {(False, False), (False, True), (True, False)}

    def test_long_induced_cycle_against_every_subset(self):
        rng = random.Random(1407)
        verdicts = set()
        for i in range(60):
            g = planted_hole(rng) if i % 3 else cycles_and_paths(rng, rng.randint(6, 9))
            for min_length in range(3, 7):
                verdict = has_long_induced_cycle(g, min_length)
                assert verdict == brute_long_induced_cycle(g, min_length), (g, min_length)
                verdicts.add((min_length, verdict))
        assert verdicts == {(m, v) for m in range(3, 7) for v in (False, True)}

    def test_classify_against_oracle_flags(self):
        for n in range(0, 7):
            for pi in all_perms(n):
                g = inversion_graph(pi)
                assert classify(g) == oracle_flags(g), pi

    def test_connectivity_searched_once_per_two_regular_subset(self, monkeypatch):
        rng = random.Random(1495)
        pi = tuple(rng.sample(range(1, 10), 9))
        g = inversion_graph(pi)
        two_regular = 0
        for k in range(5, 10):
            for sub in itertools.combinations(range(1, 10), k):
                h = g.induced(sub)
                assert not connectivity_first_is_cycle(h), sub
                two_regular += all(h.degree(v) == 2 for v in range(1, k + 1))
        assert two_regular > 0
        calls = []
        search = ig.is_connected
        monkeypatch.setattr(ig, "is_connected", lambda h: calls.append(h.n) or search(h))
        assert not has_long_induced_cycle(g, 5)
        assert len(calls) == two_regular

    def test_guard_fires_before_the_first_subset(self, monkeypatch):
        hole = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]

        def no_work(*args, **kwargs):
            raise AssertionError("a subset was built before the refusal")

        with monkeypatch.context() as m:
            m.setattr(Graph, "induced", no_work)
            with pytest.raises(SizeGuardError):
                has_long_induced_cycle(ig.graph_from_edges(13, hole))
        assert has_long_induced_cycle(ig.graph_from_edges(13, hole), max_n=13)
        assert has_long_induced_cycle(ig.graph_from_edges(12, hole))


def subgraph_cograph(g):
    """The per-4-set test ``is_cograph`` replaced: build the induced
    subgraph and look for three edges, degrees (1, 1, 2, 2), connected."""
    for quad in itertools.combinations(range(1, g.n + 1), 4):
        sub = g.induced(quad)
        if len(sub.edges) == 3 and sub.degree_sequence() == (1, 1, 2, 2) and is_connected(sub):
            return False
    return True


def random_graph(rng, n):
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(n, frozenset(e for e in pairs if rng.random() < rng.random()))


class TestCographAgainstSubgraphs:
    def test_every_graph_up_to_five_vertices(self):
        for n in range(0, 6):
            for g in every_graph(n):
                assert is_cograph(g) == subgraph_cograph(g), g

    def test_seeded_graphs_up_to_nine_vertices(self):
        rng = random.Random(4417)
        verdicts = set()
        for _ in range(1200):
            g = random_graph(rng, rng.randint(4, 9))
            verdict = is_cograph(g)
            assert verdict == subgraph_cograph(g), g
            verdicts.add(verdict)
        assert verdicts == {False, True}


def module_growth_prime(g):
    """The ``is_prime`` the mask version replaced: grow each pair into its
    smallest module one ``has_edge`` set at a time."""
    for u, v in itertools.combinations(range(1, g.n + 1), 2):
        block = {u, v}
        changed = True
        while changed:
            changed = False
            for w in range(1, g.n + 1):
                if w not in block and len({g.has_edge(w, x) for x in block}) > 1:
                    block.add(w)
                    changed = True
        if len(block) < g.n:
            return False
    return True


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
            for g in every_graph(n):
                assert is_prime(g) == brute_force_prime(g), g

    def test_seeded_graphs_of_six_and_seven_vertices(self):
        rng = random.Random(5521)
        verdicts = set()
        for _ in range(300):
            g = random_graph(rng, rng.randint(6, 7))
            verdict = is_prime(g)
            assert verdict == brute_force_prime(g) == module_growth_prime(g), g
            verdicts.add(verdict)
        assert verdicts == {False, True}

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


@functools.lru_cache(maxsize=None)
def _sweep_table(n):
    """Each permutation of length n with its inversion count, the degree
    sequence of its inversion graph, and that graph."""
    table = []
    for pi in all_perms(n):
        g = inversion_graph(pi)
        table.append((pi, len(g.edges), g.degree_sequence(), g))
    return table


def sweep_preimages(g, n):
    """The sweep ``preimages`` replaced: every permutation of length n with
    the right inversion count and degree sequence, tested for isomorphism."""
    if g.n != n:
        return set()
    plain = Graph(g.n, g.edges)
    key = (len(plain.edges), plain.degree_sequence())
    return {
        pi
        for pi, edges, degrees, candidate in _sweep_table(n)
        if (edges, degrees) == key and is_isomorphic(candidate, plain)
    }


class TestPreimagesAgainstSweep:
    """``preimages`` runs the layer generator; the sweep over Sₙ is the
    oracle."""

    def test_every_inversion_graph_up_to_six(self):
        for n in range(0, 7):
            for pi in all_perms(n):
                g = inversion_graph(pi)
                assert preimages(g, n) == sweep_preimages(g, n), pi

    def test_seeded_prime_graphs_of_length_seven(self):
        simple = [pi for pi in all_perms(7) if is_simple(pi)]
        for pi in random.Random(7213).sample(simple, 60):
            g = inversion_graph(pi)
            assert is_prime(g)
            assert preimages(g, 7) == sweep_preimages(g, 7), pi

    def test_labels_are_ignored(self):
        for g in small_graphs(labeled=True):
            got = preimages(g, g.n)
            assert got == sweep_preimages(g, g.n) == preimages(Graph(g.n, g.edges), g.n), g

    def test_size_mismatch(self):
        for g in (path_graph(4), cycle_graph(5), Graph(0, frozenset())):
            for n in (g.n - 1, g.n + 1):
                if n >= 0:
                    assert preimages(g, n) == sweep_preimages(g, n) == set()

    def test_non_inversion_graphs(self):
        assert preimages(cycle_graph(5), 5) == sweep_preimages(cycle_graph(5), 5) == set()
        rng = random.Random(9034)
        empty = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7))
            got = preimages(g, g.n)
            assert got == sweep_preimages(g, g.n), g
            empty += not got
        assert empty > 0
