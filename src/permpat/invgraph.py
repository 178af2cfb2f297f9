"""Inversion graphs and desk-scale graph machinery: induced-subgraph and
isomorphism search, structural predicates, primality, automorphisms, and
permutation preimages.

Graphs are simple and undirected on vertices ``1..n``, optionally carrying
one label per vertex.  Induced-subgraph embedding compares labels by a
poset's ``<=``; isomorphism compares labels by identity.
"""
from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .classes import _tuple_layers
from .guards import check_size
from .labels import FinitePoset, _label_from_json
from .perm import SYMMETRY_NAMES, Perm, _move_points


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``1..n`` with optional labels."""

    n: int
    edges: frozenset
    labels: Optional[tuple] = None

    def __post_init__(self):
        # by type, since True and 2.0 compare equal to a vertex count
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"the vertex count must be a non-negative int; got {self.n!r}")
        norm = set()
        for e in self.edges:
            u, v = e
            if not (1 <= u <= self.n and 1 <= v <= self.n) or u == v:
                raise ValueError(f"bad edge {e!r} for vertex range 1..{self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(f"got {len(self.labels)} labels for {self.n} vertices")

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, u: int) -> list:
        return [v for v in range(1, self.n + 1) if self.has_edge(u, v)]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def degree_sequence(self) -> tuple:
        return tuple(sorted(self.degree(v) for v in range(1, self.n + 1)))

    def label(self, v: int):
        return None if self.labels is None else self.labels[v - 1]

    def induced(self, vertices: tuple) -> "Graph":
        """The subgraph induced by the given vertices, relabeled 1..k in the
        given order (labels carried along)."""
        index = {v: i + 1 for i, v in enumerate(vertices)}
        edges = frozenset(
            (index[u], index[v])
            for u in vertices
            for v in vertices
            if u < v and self.has_edge(u, v)
        )
        labels = None
        if self.labels is not None:
            labels = tuple([self.labels[v - 1] for v in vertices])
        return Graph(len(vertices), edges, labels)


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    return Graph(n, frozenset(tuple(e) for e in edges), labels)


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def inversion_graph(pi: Perm, labels=None) -> Graph:
    """Vertices ``1..n`` with an edge ``{i, j}`` whenever positions ``i < j``
    hold an inversion (``pi[i] > pi[j]``).

    >>> sorted(inversion_graph((2, 5, 4, 1, 3)).edges)
    [(1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
    """
    n = len(pi)
    edges = frozenset(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if pi[i] > pi[j]
    )
    return Graph(n, edges, labels)


# ---------------------------------------------------------------------------
# embedding, isomorphism, automorphisms


def _adjacency(g: Graph) -> list:
    """Neighbour bitmask of each vertex, indexed by vertex (entry 0 unused):
    bit ``v`` of entry ``u`` is set when ``{u, v}`` is an edge."""
    adj = [0] * (g.n + 1)
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _maps(a: Graph, b: Graph, fits: Callable) -> Iterator[tuple]:
    """Each map of the vertices of ``a`` to distinct vertices of ``b`` that
    keeps edges and non-edges (1-based tuple: image of each a-vertex), lazily.
    The vertices of ``a`` are mapped one at a time, in decreasing order of
    degree, off a stack with one entry per mapped vertex (the b-vertices it
    has still to try, in increasing order), so no Python frame is taken per
    vertex.  A b-vertex ``bv`` is taken for ``av`` when it is unused, when
    its neighbours among the used b-vertices are exactly the images of av's
    neighbours among the mapped a-vertices (one comparison of neighbour
    masks), and then when ``fits(av, bv, deg_a(av), deg_b(bv))`` holds."""
    aadj, badj = _adjacency(a), _adjacency(b)
    adeg = [m.bit_count() for m in aadj]
    order = sorted(range(1, a.n + 1), key=adeg.__getitem__, reverse=True)
    earlier = [[w for w in order[:i] if aadj[v] >> w & 1] for i, v in enumerate(order)]
    image = [0] * (a.n + 1)
    stack, used = [], 0  # per a-vertex: b-vertices left, mask to match, b-vertices used
    while True:
        if len(stack) == len(order):
            yield tuple(image[1:])
        else:
            want = 0
            for w in earlier[len(stack)]:
                want |= 1 << image[w]
            stack.append((iter(range(1, b.n + 1)), want, used))
        # the next consistent b-vertex of the deepest a-vertex that has one
        while stack:
            rest, want, used = stack[-1]
            av = order[len(stack) - 1]
            for bv in rest:
                if used >> bv & 1 or badj[bv] & used != want:
                    continue
                if fits(av, bv, adeg[av], badj[bv].bit_count()):
                    break
            else:
                stack.pop()
                continue
            image[av] = bv
            used |= 1 << bv
            break
        else:
            return


def induced_embeds(
    h: Graph, g: Graph, poset: Optional[FinitePoset] = None
) -> Optional[tuple]:
    """The first vertex map (1-based tuple: image of each h-vertex) that
    :func:`_maps` finds embedding ``h`` as an induced subgraph of ``g``, or
    ``None``; the search takes no Python frame per vertex, so any size works.

    When both graphs carry labels, the embedding must dominate: the h-label
    is required to lie below the image's g-label in ``poset`` (identity
    comparison when no poset is given).  A label outside ``poset`` is
    refused with ``ValueError`` before the search starts.
    """
    if h.n > g.n:
        return None
    use_labels = h.labels is not None and g.labels is not None
    leq = operator.eq if poset is None else poset.leq
    if use_labels and poset is not None:
        for label in itertools.chain(h.labels, g.labels):
            if label not in poset:
                raise ValueError(f"label {label!r} is not a poset element")

    def fits(hv: int, gv: int, hd: int, gd: int) -> bool:
        return gd >= hd and (not use_labels or leq(h.labels[hv - 1], g.labels[gv - 1]))

    return next(_maps(h, g, fits), None)


def _isomorphisms(g: Graph, h: Graph) -> Iterator[tuple]:
    """The isomorphisms g -> h (labels by identity when both present), lazily."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return
    use_labels = g.labels is not None and h.labels is not None

    def fits(gv: int, hv: int, gd: int, hd: int) -> bool:
        return gd == hd and (not use_labels or g.labels[gv - 1] == h.labels[hv - 1])

    yield from _maps(g, h, fits)


def find_isomorphism(g: Graph, h: Graph) -> Optional[tuple]:
    """One isomorphism (labels compared by identity when both present)."""
    return next(_isomorphisms(g, h), None)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff the graphs are isomorphic; when both carry labels the
    isomorphism must preserve them exactly (element identity)."""
    return find_isomorphism(g, h) is not None


def all_isomorphisms(g: Graph, h: Graph) -> list:
    """Every isomorphism g -> h (labels by identity when both present)."""
    return list(_isomorphisms(g, h))


def automorphisms(g: Graph, max_n: Optional[int] = None) -> list:
    """All automorphisms by backtracking, as vertex-image tuples.

    >>> len(automorphisms(complete_graph(3)))
    6
    """
    check_size("automorphisms", g.n, 10, max_n)
    return all_isomorphisms(g, g)


# ---------------------------------------------------------------------------
# structural predicates


def _components(g: Graph) -> tuple:
    """The number of connected components of ``g``, and whether every one of
    them is 2-colourable, from one breadth-first search over the neighbour
    masks, one level at a time.  A component is 2-colourable when no edge
    joins two vertices of the same level: colour the levels alternately."""
    adj = _adjacency(g)
    unseen = (1 << g.n + 1) - 2
    count, clash = 0, 0
    while unseen:
        count += 1
        level = unseen & -unseen  # the least unseen vertex starts a component
        while level:
            unseen &= ~level
            reach, rest = 0, level
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                reach |= adj[v]
                clash |= adj[v] & level
            level = reach & unseen
    return count, not clash


def is_connected(g: Graph) -> bool:
    return _components(g)[0] == 1


def is_bipartite(g: Graph) -> bool:
    return _components(g)[1]


def is_forest(g: Graph) -> bool:
    """True iff the graph has no cycle: a forest on n vertices with c
    components has exactly n - c edges, and any other graph has more."""
    return len(g.edges) == g.n - _components(g)[0]


# Each predicate below tests its cheapest necessary condition first: the
# degree test stops at the first vertex that fails it, before any
# component search is run.


def is_linear_forest(g: Graph) -> bool:
    return all(g.degree(v) <= 2 for v in range(1, g.n + 1)) and is_forest(g)


def is_path(g: Graph) -> bool:
    return g.n >= 1 and is_linear_forest(g) and is_connected(g)


def is_cycle(g: Graph) -> bool:
    return (
        g.n >= 3
        and all(g.degree(v) == 2 for v in range(1, g.n + 1))
        and is_connected(g)
    )


def is_cograph(g: Graph) -> bool:
    """True iff no 4 vertices induce a path (P4-freeness).  Of the graphs on
    four vertices only P4 has degree sequence (1, 1, 2, 2)."""
    adj = _adjacency(g)
    for quad in itertools.combinations(range(1, g.n + 1), 4):
        mask = sum(1 << v for v in quad)
        if sorted((adj[v] & mask).bit_count() for v in quad) == [1, 1, 2, 2]:
            return False
    return True


def is_prime(g: Graph) -> bool:
    """True iff the graph has no module ``X`` with ``1 < |X| < n`` (a vertex
    set every outside vertex attaches to uniformly).  Each pair's smallest
    module is grown as a mask: an outside vertex ``w`` splits the block when
    its neighbours in it are neither none nor all of it."""
    adj = _adjacency(g)
    every = (1 << g.n + 1) - 2
    for u, v in itertools.combinations(range(1, g.n + 1), 2):
        block = grown = 1 << u | 1 << v
        while grown:
            grown = ~block & sum(
                1 << w for w in range(1, g.n + 1) if adj[w] & block not in (0, block)
            )
            block |= grown
        if block != every:
            return False
    return True


def classify(g: Graph) -> dict:
    """All structural flags at once."""
    return {
        "is_path": is_path(g),
        "is_cycle": is_cycle(g),
        "is_linear_forest": is_linear_forest(g),
        "is_forest": is_forest(g),
        "is_bipartite": is_bipartite(g),
        "is_connected": is_connected(g),
        "is_cograph": is_cograph(g),
        "is_prime": is_prime(g),
    }


def has_long_induced_cycle(
    g: Graph, min_length: int = 5, max_n: Optional[int] = None
) -> bool:
    """True iff some >= ``min_length`` vertices induce a cycle.  Every
    vertex subset is tried, so more than 12 vertices are refused before the
    first one."""
    check_size("has_long_induced_cycle", g.n, 12, max_n)
    for k in range(min_length, g.n + 1):
        for sub_vertices in itertools.combinations(range(1, g.n + 1), k):
            if is_cycle(g.induced(sub_vertices)):
                return True
    return False


# ---------------------------------------------------------------------------
# preimages


def preimages(g: Graph, n: int, max_n: Optional[int] = None) -> set:
    """All permutations of length ``n`` whose inversion graph is isomorphic
    to ``g`` (ignoring labels).

    >>> sorted(preimages(path_graph(4), 4))
    [(2, 4, 1, 3), (3, 1, 4, 2)]
    """
    check_size("preimages", n, 8, max_n)
    if g.n != n:
        return set()
    # A point deletion of pi deletes a vertex of its inversion graph, so the
    # permutations whose graph embeds in g are downward closed; at length
    # g.n an induced embedding is an isomorphism.
    for members, _ in _tuple_layers(
        lambda pi: induced_embeds(inversion_graph(pi), g) is not None, n
    ):
        pass
    return set(members)


def symmetry_automorphism_maps(sigma: Perm) -> dict:
    """The vertex maps induced on the inversion graph by the symmetries that
    fix ``sigma``: position ``i`` maps to ``sigma(i)`` when the 'inverse'
    symmetry fixes sigma, to ``n+1-i`` for 'reverse-complement', and to
    ``n+1-sigma(i)`` for 'rc-inverse'.  Always includes the identity."""
    out = {"identity": tuple(range(1, len(sigma) + 1))}
    for name in SYMMETRY_NAMES:
        image, positions = _move_points(sigma, name)
        if image == sigma:
            out[name] = positions
    return out


# ---------------------------------------------------------------------------
# serialization


def to_dot(g: Graph, name: str = "G") -> str:
    """Deterministic DOT output; vertex labels become DOT labels."""
    lines = [f"graph {name} {{"]
    for v in range(1, g.n + 1):
        if g.labels is not None:
            lines.append(f'  {v} [label="{g.labels[v - 1]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> dict:
    """Adjacency-list JSON."""
    data = {
        "n": g.n,
        "adjacency": [sorted(g.neighbors(v)) for v in range(1, g.n + 1)],
    }
    if g.labels is not None:
        data["labels"] = list(g.labels)
    return data


def graph_from_json(data) -> Graph:
    if isinstance(data, str):
        data = json.loads(data)
    n, adjacency, labels = (
        (data.get("n"), data.get("adjacency"), data.get("labels"))
        if isinstance(data, dict) else (None, None, None)
    )
    if not (
        type(n) is int
        and isinstance(adjacency, list)
        and len(adjacency) == n
        and all(isinstance(neigh, list) and all(type(v) is int for v in neigh) for neigh in adjacency)
        and (labels is None or isinstance(labels, list))
    ):
        raise ValueError(
            "a graph is an object whose n is an integer, whose adjacency is one array"
            " of integer neighbours per vertex, and whose optional labels are an array"
        )
    arcs = {(u, v) for u, neigh in enumerate(adjacency, start=1) for v in neigh}
    one_sided = [(u, v) for u, v in arcs if 1 <= v <= n and (v, u) not in arcs]
    if one_sided:
        u, v = min(one_sided)
        raise ValueError(f"adjacency lists the edge ({u}, {v}) on one side only: vertex {v} does not list {u}")
    edges = {(min(u, v), max(u, v)) for u, v in arcs}
    return Graph(n, frozenset(edges), None if labels is None else _label_from_json(labels))
