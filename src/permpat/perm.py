"""Core permutation machinery: containment, symmetries, sums, intervals,
simplicity, inflation, and substitution decomposition trees.

A permutation of length ``n`` is an immutable tuple of the integers ``1..n``
in one-line notation; the empty tuple is the empty permutation.  The text
format is whitespace-separated one-line notation (``"4 7 9 8 3 2 1 5 6"``);
compact digit strings are accepted on input for ``n <= 9``; the empty
permutation serializes as the empty string.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # only the annotation names it; fractions would load decimal too
    from fractions import Fraction

Perm = tuple  # a permutation in one-line notation: tuple of ints 1..n

Numeric = Union[int, float, "Fraction"]


# ---------------------------------------------------------------------------
# construction, parsing, formatting


def check_perm(values: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.  The entries
    must be ints: ``bool`` and ``float`` values are refused.

    >>> check_perm([3, 1, 2])
    (3, 1, 2)
    """
    p = tuple(values)
    # by type, since True and 1.0 compare equal to the entry 1
    if not {*map(type, p)} <= {int}:
        raise ValueError(f"permutation entries must be ints: {p!r}")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def parse_perm(text: str) -> Perm:
    """Parse one-line notation: whitespace- or comma-separated values, or a
    compact digit string for lengths up to 9.  The empty string is the empty
    permutation.

    >>> parse_perm("4 7 9 8 3 2 1 5 6")[:3]
    (4, 7, 9)
    >>> parse_perm("3142")
    (3, 1, 4, 2)
    >>> parse_perm("")
    ()
    """
    text = text.strip().replace(",", " ")
    if not text:
        return ()
    parts = text.split()
    if len(parts) == 1 and parts[0].isdigit() and len(parts[0]) > 1:
        return check_perm([int(ch) for ch in parts[0]])
    return check_perm([int(part) for part in parts])


def format_perm(p: Perm) -> str:
    """One-line notation with spaces; empty string for the empty permutation."""
    return " ".join(str(v) for v in p)


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of length ``n`` in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def perms_up_to(n: int) -> Iterator[Perm]:
    """All permutations of lengths ``0..n``, by length then lexicographic."""
    for k in range(n + 1):
        yield from all_perms(k)


# ---------------------------------------------------------------------------
# reduction and containment


def reduce_sequence(seq: Sequence[Numeric]) -> Perm:
    """The unique permutation order-isomorphic to a sequence of distinct values.

    >>> reduce_sequence((3, -1, 3.14159, 2.71828))
    (3, 1, 4, 2)
    >>> reduce_sequence(())
    ()
    """
    if len(set(seq)) != len(seq):
        raise ValueError(f"entries are not pairwise distinct: {seq!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple([rank[v] for v in seq])


def _slot_bounds(sigma: Perm) -> tuple[list[int], list[int]]:
    """For each pattern slot j, the earlier slot holding the closest value
    below / above ``sigma[j]`` (or -1).  Both are read off a sorted list of
    the earlier values, one bisection per slot."""
    k = len(sigma)
    lower = [-1] * k
    upper = [-1] * k
    seen = []  # the values of slots 0..j-1, ascending
    slots = []  # the slot of each value in ``seen``
    for j, v in enumerate(sigma):
        i = bisect_left(seen, v)
        if i:
            lower[j] = slots[i - 1]
        if i < j:
            upper[j] = slots[i]
        seen.insert(i, v)
        slots.insert(i, j)
    return lower, upper


def containment_witness(sigma: Perm, pi: Perm) -> Optional[tuple]:
    """The lexicographically least increasing index sequence (1-based) of
    ``pi`` whose entries reduce to ``sigma``, or ``None``.

    Depth-first embedding with pruning on remaining length and on the value
    interval forced by the already-embedded entries.  The search is one loop
    with no Python frame per pattern entry, so a pattern of any length is
    searched; one longer than ``pi`` is absent with no search at all.

    >>> containment_witness((3, 2, 5, 1, 4), (4, 3, 2, 6, 7, 9, 1, 8, 5))
    (1, 2, 4, 7, 9)
    >>> containment_witness((5, 4, 3, 2, 1), (4, 3, 2, 6, 7, 9, 1, 8, 5)) is None
    True
    """
    return _witness(sigma, pi)


def _witness(
    sigma: Perm, pi: Perm, fits: Optional[Callable] = None, plan: Optional[tuple] = None
) -> Optional[tuple]:
    """:func:`containment_witness`, where pattern slot ``j`` may also take
    0-based position ``pos`` of ``pi`` only if ``fits(j, pos)`` holds, and
    ``plan`` is ``_slot_bounds(sigma)`` when the caller has it already.

    The search is one loop over the slot ``j`` being filled: it tries the
    positions of slot j in increasing order and steps back to slot j - 1
    when none is left, so the first full embedding it reaches is the
    lexicographically least.  A pattern longer than ``pi`` is absent with
    no search at all."""
    k, n = len(sigma), len(pi)
    if k == 0:
        return ()
    if k > n:
        return None
    lower, upper = plan or _slot_bounds(sigma)
    chosen = [0] * k
    # slot j takes a position in pi no later than ``last``, which leaves
    # room for the slots after it
    j = pos = 0
    lo, hi, last = 0, n + 1, n - k
    while True:
        if pos > last:
            # slot j has no position left: try slot j - 1's next one
            if j == 0:
                return None
            j -= 1
            pos = chosen[j] + 1
        else:
            v = pi[pos]
            if not (lo < v < hi and (fits is None or fits(j, pos))):
                pos += 1
                continue
            chosen[j] = pos
            j += 1
            if j == k:
                return tuple([i + 1 for i in chosen])
            pos += 1
        # the value interval that the filled slots force on slot j
        lo = pi[chosen[lower[j]]] if lower[j] >= 0 else 0
        hi = pi[chosen[upper[j]]] if upper[j] >= 0 else n + 1
        last = n - k + j


def contains(sigma: Perm, pi: Perm) -> bool:
    """True iff some subsequence of ``pi`` reduces to ``sigma``.

    >>> contains((3, 2, 5, 1, 4), (4, 3, 2, 6, 7, 9, 1, 8, 5))
    True
    >>> contains((), (2, 1))
    True
    """
    return containment_witness(sigma, pi) is not None


def avoids(pi: Perm, patterns: Iterable[Perm]) -> bool:
    """True iff ``pi`` contains none of ``patterns``."""
    return all(not contains(beta, pi) for beta in patterns)


def patterns_of_length(pi: Perm, k: int) -> set:
    """All reductions of ``k``-subsets of positions of ``pi``.

    >>> sorted(patterns_of_length((2, 4, 1, 3), 3))
    [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    if not 0 <= k <= len(pi):
        raise ValueError(f"pattern length {k} out of range for |pi|={len(pi)}")
    out = set()
    for positions in itertools.combinations(range(len(pi)), k):
        out.add(reduce_sequence([pi[i] for i in positions]))
    return out


def all_patterns(pi: Perm) -> set:
    """All patterns of ``pi`` of every length 0..|pi|."""
    out = set()
    for k in range(len(pi) + 1):
        out |= patterns_of_length(pi, k)
    return out


# ---------------------------------------------------------------------------
# symmetries

#: Where each graph-preserving symmetry moves the point ``(i, v)`` of a
#: permutation of length ``n``: the inverse transposes the plot, the
#: reverse-complement turns it by 180 degrees, and rc-inverse does both.
_POINT_MAPS = {
    "inverse": lambda n, i, v: (v, i),
    "reverse-complement": lambda n, i, v: (n + 1 - i, n + 1 - v),
    "rc-inverse": lambda n, i, v: (n + 1 - v, n + 1 - i),
}

SYMMETRY_NAMES = tuple(_POINT_MAPS)


def _move_points(pi: Perm, which: str) -> tuple:
    """The image of ``pi`` under the named symmetry, and the 1-based
    position that each entry of ``pi`` moves to, in position order."""
    if which not in _POINT_MAPS:
        raise ValueError(f"unknown symmetry {which!r}; choose from {SYMMETRY_NAMES}")
    move = _POINT_MAPS[which]
    n = len(pi)
    image = [0] * n
    positions = []
    for i, v in enumerate(pi, 1):
        j, w = move(n, i, v)
        image[j - 1] = w
        positions.append(j)
    return tuple(image), tuple(positions)


def inverse(pi: Perm) -> Perm:
    """The group-theoretic inverse.

    >>> inverse((2, 3, 1, 4))
    (3, 1, 2, 4)
    """
    return apply_symmetry(pi, "inverse")


def reverse_complement(pi: Perm) -> Perm:
    """Rotate the plot by 180 degrees: reverse positions and complement values.

    >>> reverse_complement((2, 3, 1, 4))
    (1, 4, 2, 3)
    """
    return apply_symmetry(pi, "reverse-complement")


def rc_inverse(pi: Perm) -> Perm:
    """The inverse of the reverse-complement."""
    return apply_symmetry(pi, "rc-inverse")


def apply_symmetry(pi: Perm, which: str) -> Perm:
    """Apply one of the graph-preserving symmetries by name
    (``inverse``, ``reverse-complement``, ``rc-inverse``)."""
    return _move_points(pi, which)[0]


def symmetry_class(pi: Perm) -> set:
    """The set {pi, inverse, reverse-complement, rc-inverse of pi}."""
    return {pi, inverse(pi), reverse_complement(pi), rc_inverse(pi)}


# ---------------------------------------------------------------------------
# sums and components

def direct_sum(sigma: Perm, tau: Perm) -> Perm:
    """``sigma`` followed by ``tau`` shifted above it.

    >>> direct_sum((4, 5, 3, 1, 2), (2, 3, 4, 1))
    (4, 5, 3, 1, 2, 7, 8, 9, 6)
    """
    k = len(sigma)
    return sigma + tuple([v + k for v in tau])


def skew_sum(sigma: Perm, tau: Perm) -> Perm:
    """``sigma`` shifted above ``tau``, followed by ``tau``.

    >>> skew_sum((1,), (1,))
    (2, 1)
    """
    m = len(tau)
    return tuple([v + m for v in sigma]) + tau


_SUMS = {"direct": direct_sum, "skew": skew_sum}

SUM_DIRECTIONS = tuple(_SUMS)


def sum_perms(sigma: Perm, tau: Perm, direction: str) -> Perm:
    """Direct or skew sum by name."""
    if direction not in _SUMS:
        raise ValueError(f"unknown direction {direction!r}; choose from {SUM_DIRECTIONS}")
    return _SUMS[direction](sigma, tau)


def components(pi: Perm, direction: str = "direct") -> list:
    """The unique maximal decomposition into direct- (or skew-) sum components,
    each indecomposable in that direction; folding them back with
    :func:`sum_perms` reproduces ``pi``.

    >>> components((4, 5, 3, 1, 2, 7, 8, 9, 6), "direct")
    [(4, 5, 3, 1, 2), (2, 3, 4, 1)]
    >>> components((3, 2, 1), "direct")
    [(3, 2, 1)]
    """
    if direction not in SUM_DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; choose from {SUM_DIRECTIONS}")
    n = len(pi)
    out = []
    start = 0
    extreme = 0
    for i, v in enumerate(pi):
        extreme = max(extreme, v if direction == "direct" else n + 1 - v)
        if extreme == i + 1:
            offset = start if direction == "direct" else n - 1 - i
            out.append(tuple([w - offset for w in pi[start : i + 1]]))
            start = i + 1
    return out


def is_sum_indecomposable(pi: Perm, direction: str = "direct") -> bool:
    """True iff ``pi`` has exactly one component in the given direction."""
    return len(components(pi, direction)) == 1


def delete_entry(pi: Perm, i: int) -> Perm:
    """Delete the entry at 1-based position ``i`` and reduce.

    >>> delete_entry((3, 1, 2), 1)
    (1, 2)
    """
    if not 1 <= i <= len(pi):
        raise IndexError(f"position {i} out of range for |pi|={len(pi)}")
    gone = pi[i - 1]
    return tuple([v - 1 if v > gone else v for v in pi if v != gone])


def one_point_deletions(pi: Perm) -> list:
    """All one-entry deletions, in position order (with repeats removed later
    by callers that want sets)."""
    return [delete_entry(pi, i) for i in range(1, len(pi) + 1)]


def one_point_extensions(pi: Perm) -> set:
    """Every permutation of length ``|pi| + 1`` with a one-entry deletion
    equal to ``pi``: insert each value 1..n+1 at each position, shifting the
    existing values at or above it.

    >>> sorted(one_point_extensions((1,)))
    [(1, 2), (2, 1)]
    """
    n = len(pi)
    out = set()
    for value in range(1, n + 2):
        bumped = tuple([v + 1 if v >= value else v for v in pi])
        for pos in range(n + 1):
            out.add(bumped[:pos] + (value,) + bumped[pos:])
    return out


# ---------------------------------------------------------------------------
# intervals, simplicity, inflation


def intervals(pi: Perm) -> list:
    """All proper intervals: 1-based inclusive index ranges ``(i, j)`` of
    length ``2..n-1`` whose positions are contiguous and whose value set is
    contiguous, in lexicographic order.

    >>> intervals((2, 4, 1, 3))
    []
    >>> intervals((1, 2, 3))
    [(1, 2), (2, 3)]
    """
    n = len(pi)
    out = []
    for i in range(n):
        lo = hi = pi[i]
        for j in range(i + 1, n):
            lo = min(lo, pi[j])
            hi = max(hi, pi[j])
            if j - i == n - 1:
                break  # the whole permutation is not a proper interval
            if hi - lo == j - i:
                out.append((i + 1, j + 1))
    return out


def is_simple(pi: Perm) -> bool:
    """True iff ``|pi| >= 2`` and ``pi`` has no proper interval.  Any
    sequence of ints will do, packed ``bytes`` included.

    >>> is_simple((1, 2)), is_simple((2, 3, 1)), is_simple((2, 4, 1, 3))
    (True, False, True)
    """
    n = len(pi)
    if n < 3:
        return n == 2
    # a bond, two adjacent entries with consecutive values, is a proper
    # interval of length 2; one pass finds it, and 35 078 of the 37 394
    # permutations of length 8 that have an interval have a bond
    a = pi[0]
    for b in pi[1:]:
        if a - b == 1 or b - a == 1:
            return False
        a = b
    # the window scan of :func:`intervals`, which skips the whole of pi,
    # stopped at the first proper interval; the last start holds only a bond
    for i in range(n - 2):
        lo = hi = pi[i]
        for j in range(i + 1, n if i else n - 1):
            v = pi[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - i:
                return False
    return True


def simple_perms(n: int) -> list:
    """All simple permutations of length ``n``, lexicographically sorted."""
    return [p for p in all_perms(n) if is_simple(p)]


def inflate(sigma: Perm, alphas: Sequence[Perm]) -> Perm:
    """Replace each entry of ``sigma`` by an interval copy of the
    corresponding block.  A skeleton or block that is not a permutation is
    refused with ``ValueError`` before anything is built.

    >>> inflate((2, 4, 1, 3), [(1,), (1, 3, 2), (3, 2, 1), (1, 2)])
    (4, 7, 9, 8, 3, 2, 1, 5, 6)
    """
    sigma = check_perm(sigma)
    alphas = [check_perm(a) for a in alphas]
    if len(alphas) != len(sigma):
        raise ValueError(
            f"need {len(sigma)} blocks for a skeleton of length {len(sigma)}, got {len(alphas)}"
        )
    if any(len(a) == 0 for a in alphas):
        raise ValueError("inflation blocks must be nonempty")
    return _inflate(sigma, alphas)


def _inflate(sigma: Sequence[int], alphas: Sequence[Perm]) -> Perm:
    """:func:`inflate` without its checks, for blocks the caller built."""
    sizes = [0] * (len(sigma) + 1)
    for v, alpha in zip(sigma, alphas):
        sizes[v] = len(alpha)
    # below[v]: the entries in the blocks of skeleton values up to v
    below = list(itertools.accumulate(sizes))
    out = []
    for v, alpha in zip(sigma, alphas):
        off = below[v - 1]
        # most blocks of a tree are leaves, and one entry needs no comprehension
        out += [off + 1] if len(alpha) == 1 else [off + x for x in alpha]
    return tuple(out)


# ---------------------------------------------------------------------------
# substitution decomposition trees


@dataclass(frozen=True, eq=False, repr=False)
class SubstitutionTree:
    """A node of a substitution decomposition tree.

    ``kind`` is one of ``leaf``, ``plus`` (children >= 2, none of them a
    plus node), ``minus`` (dually), or ``simple`` (children inflate the
    ``skeleton``, a simple permutation of length >= 4).

    The methods below, ``==``, ``hash`` and ``repr`` among them, run off
    an explicit stack, so they work at any depth.
    """

    kind: str
    children: tuple = ()
    skeleton: Optional[Perm] = None

    def preorder(self) -> list:
        """``(node, number of children)`` for every node, in pre-order."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append((node, len(node.children)))
            if node.children:
                stack += node.children[::-1]
        return out

    def evaluate(self) -> Perm:
        """The permutation the tree represents: each node inflates its skeleton by its children's."""
        return _fold(self.preorder(), _evaluate_node, (1,))

    def leaf_count(self) -> int:
        return sum([not k for _, k in self.preorder()])

    def shape(self) -> str:
        """Compact textual form, e.g. ``2413[leaf, +[leaf, -[leaf, leaf]], ...]``."""
        return _fold(self.preorder(), _shape_node, "leaf")

    def _records(self) -> list:
        """Each node's class, kind, skeleton and arity in pre-order, which fix the tree."""
        return [(node.__class__, node.kind, node.skeleton, k) for node, k in self.preorder()]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._records() == other._records()

    def __hash__(self) -> int:
        return hash(tuple(self._records()))

    def __repr__(self) -> str:
        return _fold(self.preorder(), _repr_node, None)


def _evaluate_node(record: tuple, blocks: list) -> Perm:
    node, k = record
    skeleton = node.skeleton or (range(1, k + 1) if node.kind == "plus" else range(k, 0, -1))
    return _inflate(skeleton, blocks)


def _shape_node(record: tuple, inner: list) -> str:
    node, _ = record
    skeleton = node.skeleton
    if skeleton is None:
        label = "+" if node.kind == "plus" else "-"
    else:
        label = "".join(map(str, skeleton)) if len(skeleton) <= 9 else f"({format_perm(skeleton)})"
    return f"{label}[{', '.join(inner)}]"


def _repr_node(record: tuple, inner: list) -> str:
    node, k = record
    children = ", ".join(inner) + "," * (k == 1)
    return f"{node.__class__.__qualname__}(kind={node.kind!r}, children=({children}), skeleton={node.skeleton!r})"


def _fold(preorder: list, combine: Callable, leaf: object) -> object:
    """The root's value in a post-order fold over a pre-order list of tuples,
    each ending in its node's number of children: ``leaf`` (unless None) for
    a leaf, else ``combine(node, its children's values)``, off one list."""
    values = []
    for node in reversed(preorder):
        k = node[-1]
        if k:
            kids = values[: -k - 1 : -1]  # the top k, the first child's last pushed
            del values[-k:]
            values.append(combine(node, kids))
        else:
            values.append(combine(node, []) if leaf is None else leaf)
    return values[0]


#: The one leaf node every tree shares (nodes are frozen).
_LEAF = SubstitutionTree("leaf")
#: Node kind and skeleton of a sum node in each direction.
_SUM_NODES = {"direct": ("plus", (1, 2)), "skew": ("minus", (2, 1))}


def decompose_tree(pi: Perm) -> SubstitutionTree:
    """The substitution decomposition tree of a nonempty permutation; a
    sequence that is not a permutation is refused with ``ValueError``.

    The root is a plus/minus node when ``pi`` is a direct/skew sum, otherwise
    a simple node whose skeleton has length >= 4; nodes of arity >= 2 absorb
    chains of binary sums, so no plus node has a plus child (dually for
    minus).

    >>> decompose_tree((1, 2, 3)).shape()
    '+[leaf, leaf, leaf]'
    >>> decompose_tree((3, 1, 4, 2)).shape()
    '3142[leaf, leaf, leaf, leaf]'
    """
    pi = check_perm(pi)
    if len(pi) == 0:
        raise ValueError("the empty permutation has no decomposition tree")
    return _fold(list(_walk(pi)), _tree_node, _LEAF)


def _tree_node(record: tuple, children: list) -> SubstitutionTree:
    kind, skeleton, _ = record
    return SubstitutionTree(kind, tuple(children), skeleton if kind == "simple" else None)


def _walk(pi: Perm, splits: tuple = ("plus", "minus", "simple")) -> Iterator[tuple]:
    """The nodes of the substitution decomposition of ``pi`` in pre-order,
    off an explicit stack, as ``(kind, skeleton, number of children)``; a
    sum node's skeleton is 12 or 21.  A node whose kind is not in ``splits``,
    like a leaf (an empty ``pi`` is one), is not split and is its own skeleton."""
    stack = [pi]
    while stack:
        p = stack.pop()
        if len(p) < 2:
            yield "leaf", p, 0
            continue
        # a direct sum starts below its last entry and a skew sum above it,
        # so the two ends pick the only direction that can split p
        direction = "direct" if p[0] < p[-1] else "skew"
        parts = components(p, direction)
        kind, skeleton = _SUM_NODES[direction] if len(parts) >= 2 else ("simple", None)
        if kind not in splits:
            skeleton, parts = p, ()
        elif kind == "simple":
            skeleton, parts = _simple_split(p)
        yield kind, skeleton, len(parts)
        stack += reversed(parts)


def _simple_split(pi: Perm) -> tuple:
    """The root split of a ``pi`` of length >= 2 that is neither a direct nor
    a skew sum: its simple skeleton, of length >= 4, and its blocks, each
    reduced, in position order."""
    # The maximal proper intervals of a sum- and skew-indecomposable pi are
    # disjoint and contain every proper interval, so the longest interval that
    # starts at a block's first position is that block (else a singleton).
    longest = {i - 1: j for i, j in intervals(pi)}
    blocks = []
    start = 0
    while start < len(pi):
        end = longest.get(start, start + 1)
        blocks.append(pi[start:end])
        start = end
    lows = [min(block) for block in blocks]
    skeleton = reduce_sequence(lows)
    if not is_simple(skeleton) or len(skeleton) < 4:
        raise AssertionError(f"decomposition produced a bad skeleton for {pi!r}")
    return skeleton, [tuple([v - low + 1 for v in b]) for low, b in zip(lows, blocks)]
