"""Core permutation machinery: containment, symmetries, sums, intervals,
simplicity, inflation, and substitution decomposition trees.

A permutation of length ``n`` is an immutable tuple of the integers ``1..n``
in one-line notation; the empty tuple is the empty permutation.  The text
format is whitespace-separated one-line notation (``"4 7 9 8 3 2 1 5 6"``);
compact digit strings are accepted on input for ``n <= 9``; the empty
permutation serializes as the empty string.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

Perm = tuple  # a permutation in one-line notation: tuple of ints 1..n

Numeric = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# construction, parsing, formatting


def check_perm(values: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([3, 1, 2])
    (3, 1, 2)
    """
    p = tuple(values)
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
    return tuple(rank[v] for v in seq)


def _slot_bounds(sigma: Perm) -> tuple[list[int], list[int]]:
    """For each pattern slot j, the earlier slot holding the closest value
    below / above ``sigma[j]`` (or -1)."""
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


def containment_witness(sigma: Perm, pi: Perm) -> Optional[tuple]:
    """The lexicographically least increasing index sequence (1-based) of
    ``pi`` whose entries reduce to ``sigma``, or ``None``.

    Depth-first embedding with pruning on remaining length and on the value
    interval forced by the already-embedded entries.

    >>> containment_witness((3, 2, 5, 1, 4), (4, 3, 2, 6, 7, 9, 1, 8, 5))
    (1, 2, 4, 7, 9)
    >>> containment_witness((5, 4, 3, 2, 1), (4, 3, 2, 6, 7, 9, 1, 8, 5)) is None
    True
    """
    return _witness(sigma, pi)


def _witness(sigma: Perm, pi: Perm, fits: Optional[Callable] = None) -> Optional[tuple]:
    """:func:`containment_witness`, where pattern slot ``j`` may also take
    0-based position ``pos`` of ``pi`` only if ``fits(j, pos)`` holds."""
    k, n = len(sigma), len(pi)
    if k == 0:
        return ()
    if k > n:
        return None
    lower, upper = _slot_bounds(sigma)
    chosen = [0] * k

    def dfs(j: int, start: int) -> bool:
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

    if dfs(0, 0):
        return tuple(pos + 1 for pos in chosen)
    return None


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
    return sigma + tuple(v + k for v in tau)


def skew_sum(sigma: Perm, tau: Perm) -> Perm:
    """``sigma`` shifted above ``tau``, followed by ``tau``.

    >>> skew_sum((1,), (1,))
    (2, 1)
    """
    m = len(tau)
    return tuple(v + m for v in sigma) + tau


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
            out.append(reduce_sequence(pi[start : i + 1]))
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
        bumped = tuple(v + 1 if v >= value else v for v in pi)
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
    """True iff ``|pi| >= 2`` and ``pi`` has no proper interval.

    >>> is_simple((1, 2)), is_simple((2, 3, 1)), is_simple((2, 4, 1, 3))
    (True, False, True)
    """
    return len(pi) >= 2 and not intervals(pi)


def simple_perms(n: int) -> list:
    """All simple permutations of length ``n``, lexicographically sorted."""
    return [p for p in all_perms(n) if is_simple(p)]


def inflate(sigma: Perm, alphas: Sequence[Perm]) -> Perm:
    """Replace each entry of ``sigma`` by an interval copy of the
    corresponding block.

    >>> inflate((2, 4, 1, 3), [(1,), (1, 3, 2), (3, 2, 1), (1, 2)])
    (4, 7, 9, 8, 3, 2, 1, 5, 6)
    """
    if len(alphas) != len(sigma):
        raise ValueError(
            f"need {len(sigma)} blocks for a skeleton of length {len(sigma)}, got {len(alphas)}"
        )
    if any(len(a) == 0 for a in alphas):
        raise ValueError("inflation blocks must be nonempty")
    sizes = [len(a) for a in alphas]
    offsets = []
    for i in range(len(sigma)):
        offsets.append(sum(sizes[j] for j in range(len(sigma)) if sigma[j] < sigma[i]))
    out = []
    for off, alpha in zip(offsets, alphas):
        out.extend(off + v for v in alpha)
    return tuple(out)


# ---------------------------------------------------------------------------
# substitution decomposition trees


@dataclass(frozen=True)
class SubstitutionTree:
    """A node of a substitution decomposition tree.

    ``kind`` is one of ``leaf``, ``plus`` (children >= 2, none of them a
    plus node), ``minus`` (dually), or ``simple`` (children inflate the
    ``skeleton``, a simple permutation of length >= 4).
    """

    kind: str
    children: tuple = ()
    skeleton: Optional[Perm] = None

    def evaluate(self) -> Perm:
        """The permutation the tree represents (recursive inflation)."""
        if self.kind == "leaf":
            return (1,)
        blocks = [child.evaluate() for child in self.children]
        if self.kind == "simple":
            return inflate(self.skeleton, blocks)
        return functools.reduce(direct_sum if self.kind == "plus" else skew_sum, blocks, ())

    def leaf_count(self) -> int:
        if self.kind == "leaf":
            return 1
        return sum(child.leaf_count() for child in self.children)

    def shape(self) -> str:
        """Compact textual form, e.g. ``2413[leaf, +[leaf, -[leaf, leaf]], ...]``."""
        if self.kind == "leaf":
            return "leaf"
        inner = ", ".join(child.shape() for child in self.children)
        if self.kind == "plus":
            return f"+[{inner}]"
        if self.kind == "minus":
            return f"-[{inner}]"
        return f"{''.join(map(str, self.skeleton))}[{inner}]" if len(
            self.skeleton
        ) <= 9 else f"({format_perm(self.skeleton)})[{inner}]"


def leaf() -> SubstitutionTree:
    return SubstitutionTree("leaf")


def _maximal_interval_blocks(pi: Perm) -> list:
    """Partition positions of a sum- and skew-indecomposable ``pi`` into its
    maximal proper intervals plus singletons, as 0-based (start, end) pairs."""
    ivs = intervals(pi)
    maximal = [
        (a, b)
        for (a, b) in ivs
        if not any((c, d) != (a, b) and c <= a and b <= d for (c, d) in ivs)
    ]
    blocks = []
    covered = set()
    for a, b in sorted(maximal):
        blocks.append((a - 1, b - 1))
        covered.update(range(a - 1, b))
    for i in range(len(pi)):
        if i not in covered:
            blocks.append((i, i))
    blocks.sort()
    if [i for a, b in blocks for i in range(a, b + 1)] != list(range(len(pi))):
        raise AssertionError(f"maximal intervals of {pi!r} do not partition its positions")
    return blocks


def decompose_tree(pi: Perm) -> SubstitutionTree:
    """The substitution decomposition tree of a nonempty permutation.

    The root is a plus/minus node when ``pi`` is a direct/skew sum, otherwise
    a simple node whose skeleton has length >= 4; arity->=2 nodes absorb
    chains of binary sums, so no plus node has a plus child (dually for
    minus).

    >>> decompose_tree((1, 2, 3)).shape()
    '+[leaf, leaf, leaf]'
    >>> decompose_tree((3, 1, 4, 2)).shape()
    '3142[leaf, leaf, leaf, leaf]'
    """
    if len(pi) == 0:
        raise ValueError("the empty permutation has no decomposition tree")
    if len(pi) == 1:
        return leaf()
    direct = components(pi, "direct")
    if len(direct) >= 2:
        return SubstitutionTree("plus", tuple(decompose_tree(c) for c in direct))
    skew = components(pi, "skew")
    if len(skew) >= 2:
        return SubstitutionTree("minus", tuple(decompose_tree(c) for c in skew))
    blocks = _maximal_interval_blocks(pi)
    skeleton = reduce_sequence([pi[a] for a, _ in blocks])
    children = tuple(decompose_tree(reduce_sequence(pi[a : b + 1])) for a, b in blocks)
    if not is_simple(skeleton) or len(skeleton) < 4:
        raise AssertionError(f"decomposition produced a bad skeleton for {pi!r}")
    return SubstitutionTree("simple", children, skeleton)
