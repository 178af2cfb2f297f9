"""Answer checks for the benchmark, written without calling permpat.

Every check here re-derives its verdict from definitions, from a certificate
the input generator planted, or from a published count, so a wrong answer
from the timed function cannot also pass its own check.  Expected answers
that cost as much as the query itself are memoised per distinct input by
the caller, because pool inputs repeat within a run.
"""
from __future__ import annotations

import itertools
from math import comb
from typing import Optional, Sequence


# ---------------------------------------------------------------------------
# permutations


def reduce(seq: Sequence) -> tuple:
    """The permutation of 1..len(seq) order-isomorphic to ``seq``."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    out = [0] * len(seq)
    for rank, i in enumerate(order, start=1):
        out[i] = rank
    return tuple(out)


def occurrence(sigma: tuple, pi: tuple) -> Optional[tuple]:
    """0-based positions of ``pi`` that reduce to ``sigma``, or None.

    Plain backtracking that compares each new entry with every entry
    already chosen, so it shares no pruning rule with permpat's matcher.
    """
    k, n = len(sigma), len(pi)
    chosen: list = []

    def extend(start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for pos in range(start, n - (k - j) + 1):
            v = pi[pos]
            if all((sigma[i] < sigma[j]) == (pi[p] < v) for i, p in enumerate(chosen)):
                chosen.append(pos)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


def avoids_all(pi: tuple, basis) -> bool:
    return all(occurrence(b, pi) is None for b in basis)


def witness_ok(sigma: tuple, pi: tuple, witness) -> bool:
    """``witness`` is a strictly increasing 1-based index tuple of ``pi``
    whose entries reduce to ``sigma``."""
    if not isinstance(witness, tuple) or len(witness) != len(sigma):
        return False
    if any(not isinstance(i, int) or not 1 <= i <= len(pi) for i in witness):
        return False
    if any(a >= b for a, b in zip(witness, witness[1:])):
        return False
    return reduce([pi[i - 1] for i in witness]) == sigma


def contains_321(pi: tuple) -> bool:
    """Some entry has a larger entry before it and a smaller one after it."""
    return any(
        max(pi[:j], default=0) > pi[j] > min(pi[j + 1:], default=len(pi) + 1)
        for j in range(len(pi))
    )


def minimalize(basis) -> tuple:
    """Drop every pattern that contains another; sort by length then value."""
    elems = sorted(set(basis), key=lambda b: (len(b), b))
    kept = []
    for b in elems:
        if all(occurrence(prev, b) is None for prev in kept):
            kept.append(b)
    return tuple(kept)


def proper_intervals(pi: tuple) -> list:
    """1-based (i, j) windows of length 2..n-1 whose values form a range."""
    n = len(pi)
    out = []
    for i in range(n - 1):
        lo = hi = pi[i]
        for j in range(i + 1, min(n, i + n - 1)):
            v = pi[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - i:
                out.append((i + 1, j + 1))
    return out


def simple(pi: tuple) -> bool:
    return len(pi) >= 2 and not proper_intervals(pi)


def direct_sum(a: tuple, b: tuple) -> tuple:
    return a + tuple(v + len(a) for v in b)


def skew_sum(a: tuple, b: tuple) -> tuple:
    return tuple(v + len(b) for v in a) + b


def inflate(skeleton: tuple, blocks: Sequence[tuple]) -> tuple:
    """Replace entry i of ``skeleton`` by an interval copy of ``blocks[i]``."""
    base = {}
    offset = 0
    for v in sorted(range(len(skeleton)), key=skeleton.__getitem__):
        base[v] = offset
        offset += len(blocks[v])
    out = []
    for i, block in enumerate(blocks):
        out.extend(base[i] + v for v in block)
    return tuple(out)


def simple_perms_upto(nmax: int) -> list:
    return [
        p
        for n in range(2, nmax + 1)
        for p in itertools.permutations(range(1, n + 1))
        if simple(p)
    ]


# ---------------------------------------------------------------------------
# published counts


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def large_schroeder(m: int) -> int:
    """r_m: 1, 2, 6, 22, 90, 394, 1806, 8558 ... (separables of length m+1)."""
    r = [1]
    for k in range(1, m + 1):
        r.append(r[k - 1] + sum(r[i] * r[k - 1 - i] for i in range(k)))
    return r[m]


def skew_merged(n: int) -> int:
    """Atkinson (1998): C(2n, n) - sum_{m<n} 2^(n-m-1) C(2m, m)."""
    return comb(2 * n, n) - sum(2 ** (n - m - 1) * comb(2 * m, m) for m in range(n))


ANCHOR_COUNTS = {
    "321": catalan,
    "separable": lambda n: large_schroeder(n - 1),
    "skew-merged": skew_merged,
}

#: Av(12) plus one point: the permutations that become decreasing after one
#: deletion.  Its basis is 123 with the four length-4 patterns formed by two
#: ascents that no single deletion removes.
PLUS_ONE_AV12 = ((1, 2, 3), (2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2), (3, 4, 1, 2))


def plus_one_expected(basis: tuple) -> tuple:
    """Exact plus-one bases for the three small classes the benchmark asks
    about: Av(12), its reverse Av(21), and Av(12, 21) = {empty, 1}."""
    if basis == ((1, 2),):
        return PLUS_ONE_AV12
    if basis == ((2, 1),):
        return tuple(sorted((tuple(reversed(b)) for b in PLUS_ONE_AV12), key=lambda b: (len(b), b)))
    if basis == ((1, 2), (2, 1)):
        return tuple(itertools.permutations((1, 2, 3)))
    raise KeyError(basis)


def members_of_length(basis: tuple, n: int) -> tuple:
    return tuple(p for p in itertools.permutations(range(1, n + 1)) if avoids_all(p, basis))


def union_basis_expected(a: tuple, b: tuple) -> tuple:
    """Minimal permutations containing a pattern of ``a`` and one of ``b``;
    none is longer than the two longest patterns together."""
    bound = max(map(len, a)) + max(map(len, b))
    out = []
    nonmember = lambda p: not avoids_all(p, a) and not avoids_all(p, b)
    for n in range(bound + 1):
        for p in itertools.permutations(range(1, n + 1)):
            if nonmember(p) and not any(
                nonmember(reduce(p[:i] + p[i + 1:])) for i in range(n)
            ):
                out.append(p)
    return tuple(sorted(out, key=lambda q: (len(q), q)))


# ---------------------------------------------------------------------------
# substitution trees


def tree_ok(tree, pi: tuple) -> bool:
    """The tree rebuilds ``pi`` and every node has a legal shape: a plus
    (minus) node has two or more children and no plus (minus) child, and a
    simple node's skeleton is simple, of length >= 4, one child per entry."""

    def rebuild(node) -> Optional[tuple]:
        kids = node.children
        if node.kind == "leaf":
            return (1,) if not kids else None
        if node.kind in ("plus", "minus"):
            if len(kids) < 2 or any(k.kind == node.kind for k in kids):
                return None
            blocks = [rebuild(k) for k in kids]
            if None in blocks:
                return None
            out = ()
            for b in blocks:
                out = direct_sum(out, b) if node.kind == "plus" else skew_sum(out, b)
            return out
        if node.kind == "simple":
            sk = node.skeleton
            if sk is None or len(sk) < 4 or len(kids) != len(sk) or not simple(tuple(sk)):
                return None
            blocks = [rebuild(k) for k in kids]
            return None if None in blocks else inflate(tuple(sk), blocks)
        return None

    return rebuild(tree) == pi


def has_simple_node(tree) -> bool:
    return tree.kind == "simple" or any(has_simple_node(k) for k in tree.children)


def components_ok(parts, pi: tuple, skew: bool) -> bool:
    """The parts fold back to ``pi`` and none splits further."""
    if not parts:
        return False
    out = ()
    for p in parts:
        out = skew_sum(out, p) if skew else direct_sum(out, p)
    if out != pi:
        return False
    for p in parts:
        for cut in range(1, len(p)):
            left = p[:cut]
            if (min(left) > len(p) - cut) if skew else (max(left) == cut):
                return False
    return True


# ---------------------------------------------------------------------------
# graphs (adjacency as vertex -> bitmask, vertices 0..n-1)


def inversion_masks(pi: tuple) -> list:
    n = len(pi)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if pi[i] > pi[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def embedding_ok(h_pi: tuple, g_pi: tuple, mapping) -> bool:
    """``mapping`` (image of each h-vertex, 1-based) is injective and maps
    edges to edges and non-edges to non-edges of the inversion graphs."""
    if not isinstance(mapping, tuple) or len(mapping) != len(h_pi):
        return False
    if len(set(mapping)) != len(mapping) or not all(1 <= v <= len(g_pi) for v in mapping):
        return False
    hadj, gadj = inversion_masks(h_pi), inversion_masks(g_pi)
    m = [v - 1 for v in mapping]
    return all(
        bool(hadj[a] >> b & 1) == bool(gadj[m[a]] >> m[b] & 1)
        for a in range(len(m))
        for b in range(a + 1, len(m))
    )


def _connected(adj: list, verts: int) -> bool:
    if not verts:
        return False
    seen = verts & -verts
    while True:
        grow = seen
        v = seen
        while v:
            low = v & -v
            grow |= adj[low.bit_length() - 1] & verts
            v ^= low
        if grow == seen:
            return seen == verts
        seen = grow


def _is_module(adj: list, block: int, everything: int) -> bool:
    outside = everything & ~block
    while outside:
        low = outside & -outside
        seen = adj[low.bit_length() - 1] & block
        if seen and seen != block:
            return False
        outside ^= low
    return True


def graph_flags(pi: tuple) -> dict:
    """The eight flags of ``invgraph.classify`` for the inversion graph of
    ``pi``, from bitmask adjacency and brute force over vertex subsets."""
    adj = inversion_masks(pi)
    n = len(pi)
    full = (1 << n) - 1
    degrees = [bin(a).count("1") for a in adj]
    edges = sum(degrees) // 2
    components = 0
    rest = full
    while rest:
        comp = rest & -rest
        while True:
            grow = comp
            v = comp
            while v:
                low = v & -v
                grow |= adj[low.bit_length() - 1]
                v ^= low
            if grow == comp:
                break
            comp = grow
        components += 1
        rest &= ~comp
    connected = n > 0 and components == 1
    forest = edges == n - components
    linear = forest and all(d <= 2 for d in degrees)
    colour = {}
    bipartite = True
    for s in range(n):
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack and bipartite:
            u = stack.pop()
            for v in range(n):
                if adj[u] >> v & 1:
                    if v not in colour:
                        colour[v] = 1 - colour[u]
                        stack.append(v)
                    elif colour[v] == colour[u]:
                        bipartite = False
    p4_free = True
    for quad in itertools.combinations(range(n), 4):
        mask = sum(1 << v for v in quad)
        sub = sorted(bin(adj[v] & mask).count("1") for v in quad)
        if sub == [1, 1, 2, 2] and _connected(adj, mask):
            p4_free = False
            break
    prime = not any(
        _is_module(adj, block, full)
        for block in range(1, full)
        if 1 < bin(block).count("1") < n
    )
    return {
        "is_path": n >= 1 and connected and linear,
        "is_cycle": n >= 3 and connected and all(d == 2 for d in degrees),
        "is_linear_forest": linear,
        "is_forest": forest,
        "is_bipartite": bipartite,
        "is_connected": connected,
        "is_cograph": p4_free,
        "is_prime": prime,
    }


# ---------------------------------------------------------------------------
# grids: matrices as {(column, row): sign} with Cartesian indices from 1


def _cuts(n: int, parts: int):
    """Every way to split 0..n-1 into ``parts`` consecutive (maybe empty)
    runs, as a tuple giving the run of each index (runs counted from 1)."""
    for bars in itertools.combinations_with_replacement(range(n + 1), parts - 1):
        edges = (0,) + bars + (n,)
        out = []
        for run in range(parts):
            out.extend([run + 1] * (edges[run + 1] - edges[run]))
        yield tuple(out)


def gridding_ok(pi: tuple, cells, signs: dict) -> bool:
    """Every cell is nonzero, columns follow positions, rows follow values,
    and each cell's entries are monotone in the cell's direction."""
    n = len(pi)
    if len(cells) != n or any(signs.get(tuple(c), 0) == 0 for c in cells):
        return False
    if any(cells[i][0] > cells[i + 1][0] for i in range(n - 1)):
        return False
    row_of_value = sorted((pi[i], cells[i][1]) for i in range(n))
    if any(a[1] > b[1] for a, b in zip(row_of_value, row_of_value[1:])):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if tuple(cells[i]) == tuple(cells[j]):
                if (pi[i] < pi[j]) != (signs[tuple(cells[i])] == 1):
                    return False
    return True


def griddings(pi: tuple, cols: int, rows: int, signs: dict):
    n = len(pi)
    for col in _cuts(n, cols):
        for row_by_rank in _cuts(n, rows):
            cells = tuple((col[i], row_by_rank[pi[i] - 1]) for i in range(n))
            if gridding_ok(pi, cells, signs):
                yield cells


def drawing_ok(pi: tuple, cells, params, signs: dict) -> bool:
    """Placing point i at x = k-1+t, y = l-1+t (+1 cell) or l-t (-1 cell)
    with 0 < t < 1 gives distinct points whose x order is position order
    and whose y order is value order, so ``pi`` lies on the figure."""
    if len(params) != len(pi) or not gridding_ok(pi, cells, signs):
        return False
    pts = []
    for (k, l), t in zip(cells, params):
        if not 0 < t < 1:
            return False
        pts.append((k - 1 + t, (l - 1 + t) if signs[(k, l)] == 1 else (l - t)))
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    return all(a < b for a, b in zip(xs, xs[1:])) and reduce(ys) == pi


def octagon_feasible(pi: tuple, cells, signs: dict) -> bool:
    """Strict feasibility of the figure constraints for one gridding, by
    looking for a cycle of weight <= 0 in the doubled difference graph
    (node 2v is t_v, node 2v+1 is -t_v; every edge is strict).  This is a
    different decision procedure from permpat's Fourier-Motzkin solver."""
    n = len(pi)
    inf = float("inf")
    size = 2 * n
    d = [[inf] * size for _ in range(size)]

    def edge(src: int, dst: int, w: int):
        if w < d[src][dst]:
            d[src][dst] = w

    def diff(a: int, b: int, c: int):  # t_a - t_b < c
        edge(2 * b, 2 * a, c)
        edge(2 * a + 1, 2 * b + 1, c)

    def plus(a: int, b: int, c: int):  # t_a + t_b < c
        edge(2 * b + 1, 2 * a, c)
        edge(2 * a + 1, 2 * b, c)

    def minus(a: int, b: int, c: int):  # -t_a - t_b < c
        edge(2 * b, 2 * a + 1, c)
        edge(2 * a, 2 * b + 1, c)

    for v in range(n):
        edge(2 * v + 1, 2 * v, 2)  # t_v < 1
        edge(2 * v, 2 * v + 1, 0)  # -t_v < 0
    for i in range(n):
        for j in range(i + 1, n):
            (ki, li), (kj, lj) = cells[i], cells[j]
            if ki == kj:
                diff(i, j, 0)
            if li == lj:
                lo, hi = (i, j) if pi[i] < pi[j] else (j, i)
                s_lo, s_hi = signs[tuple(cells[lo])], signs[tuple(cells[hi])]
                if s_lo == 1 and s_hi == 1:
                    diff(lo, hi, 0)
                elif s_lo == -1 and s_hi == -1:
                    diff(hi, lo, 0)
                elif s_lo == 1:
                    plus(lo, hi, 1)
                else:
                    minus(lo, hi, -1)
    for k in range(size):
        dk = d[k]
        for i in range(size):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(size):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return all(d[v][v] > 0 for v in range(size))


def grid_verdict(pi: tuple, cols: int, rows: int, signs: dict, geometric: bool) -> bool:
    for cells in griddings(pi, cols, rows, signs):
        if not geometric or octagon_feasible(pi, cells, signs):
            return True
    return False
