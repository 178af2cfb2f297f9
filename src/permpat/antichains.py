"""Oscillation machinery and parametric antichain-candidate families, with
brute-force pairwise-incomparability certification.

Four families are generated, each indexed from k = 1 at its shortest
instance, with strictly increasing lengths:

* ``amr-oscillation`` (length 2k+4): an oscillation body with two extra
  entries spliced in near each end.
* ``amr-tarjan`` (length 2k+2): an oscillation body with two anchor entries
  prepended.
* ``widdershins`` (length 4k): the reduction of a spiral of coordinate
  quadruples.  **This extrapolation is not an antichain**: consecutive
  members nest (member 1 embeds in member 2 at positions 3..6), and
  :func:`verify_antichain` reports the violation rather than hiding it.
* ``labeled-path`` (length k+1): the increasing oscillation whose inversion
  graph is a path, endpoints labeled filled and the rest hollow, compared
  over the two-element antichain of labels.

Generators are pinned by exact fixed instances in the test suite and
extended parametrically; every extension is certified (or refuted) by
:func:`verify_antichain`, never trusted structurally.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .invgraph import inversion_graph, is_path
from .labels import FILLED, HOLLOW, LabeledPermutation, find_good_pair
from .perm import Perm, all_perms, inverse, is_sum_indecomposable, reduce_sequence

# ---------------------------------------------------------------------------
# oscillations


def oscillating_sequence(k: int) -> tuple:
    """First ``k`` terms of the increasing oscillating sequence, which
    alternates the values 2m and 2m−3.

    >>> oscillating_sequence(7)
    (2, 4, 1, 6, 3, 8, 5)
    >>> oscillating_sequence(0)
    ()
    """
    if k < 0:
        raise ValueError("term count must be nonnegative")
    out = []
    for i in range(1, k + 1):
        if i == 1:
            out.append(2)
        elif i % 2 == 0:
            out.append(i + 2)
        else:
            out.append(i - 2)
    return tuple(out)


def _oscillation_path_perm(n: int) -> Perm:
    """The canonical length-n increasing oscillation: a window of the
    oscillating sequence, reduced.  Its inversion graph is the path
    1−2−…−n in oscillation order."""
    if n < 1:
        raise ValueError("length must be positive")
    t = oscillating_sequence(n + 2)
    if n % 2 == 0:
        window = t[1 : n + 1]
    else:
        window = t[1:n] + (t[n + 1],)
    return reduce_sequence(window)


def increasing_oscillations(n: int) -> frozenset:
    """The increasing oscillations of length ``n``: sum-indecomposable
    permutations order-isomorphic to subsequences of the oscillating
    sequence.  Exactly one exists for n ≤ 2 and exactly two for n ≥ 3
    (a canonical window-reduction and its inverse).

    >>> sorted(increasing_oscillations(5))
    [(2, 4, 1, 5, 3), (3, 1, 5, 2, 4)]
    >>> increasing_oscillations(1)
    frozenset({(1,)})
    """
    base = _oscillation_path_perm(n)
    return frozenset({base, inverse(base)})


def oscillations_by_filter(n: int) -> frozenset:
    """Independent characterisation: the length-n permutations that are
    sum-indecomposable with a path inversion graph.  Brute force over Sₙ;
    must agree with :func:`increasing_oscillations`."""
    return frozenset(
        pi
        for pi in all_perms(n)
        if is_sum_indecomposable(pi) and is_path(inversion_graph(pi))
    )


# ---------------------------------------------------------------------------
# family generators


def amr_oscillation_member(k: int) -> Perm:
    """Member k (length 2k+4): oscillation pairs bracketed by a 4-1-2 head
    and a tail carrying the two largest values.

    >>> amr_oscillation_member(1)
    (4, 1, 2, 5, 6, 3)
    """
    if k < 1:
        raise ValueError("index must be at least 1")
    n = 2 * k + 4
    body = [4, 1, 2]
    for j in range(1, (n - 6) // 2 + 1):
        body.extend((2 * j + 4, 2 * j + 1))
    body.extend((n - 1, n, n - 3))
    return tuple(body)


#: Positions (1-based) of the spliced-in anchor entries of each
#: amr-oscillation member; deleting them leaves an oscillation-like body.
def amr_oscillation_anchors(k: int) -> tuple:
    n = 2 * k + 4
    return (2, 3, n - 2, n - 1)


def amr_tarjan_member(k: int) -> Perm:
    """Member k (length 2k+2): oscillation pairs with a two-entry head.

    >>> amr_tarjan_member(1)
    (2, 3, 4, 1)
    """
    if k < 1:
        raise ValueError("index must be at least 1")
    n = 2 * k + 2
    body = [2, n - 1]
    for j in range(1, (n - 2) // 2 + 1):
        body.extend((2 * j + 2, 2 * j - 1))
    return tuple(body)


def amr_tarjan_anchors(k: int) -> tuple:
    return (1, 2)


def widdershins_member(k: int) -> Perm:
    """Member k (length 4k): reduce the spiral coordinates
    (2j,−2j), (2j−1,2j), (−2j,2j−1), (−(2j−1),−(2j+3)) for j = 1..k,
    sorted by x.

    >>> widdershins_member(1)
    (3, 1, 4, 2)
    """
    if k < 1:
        raise ValueError("index must be at least 1")
    points = []
    for j in range(1, k + 1):
        points.extend(
            [
                (2 * j, -2 * j),
                (2 * j - 1, 2 * j),
                (-2 * j, 2 * j - 1),
                (-(2 * j - 1), -(2 * j + 3)),
            ]
        )
    points.sort()
    return reduce_sequence([y for _, y in points])


def labeled_antichain_member(k: int) -> LabeledPermutation:
    """Member k (length k+1): the canonical increasing oscillation, with the
    two path-endpoint entries (inversion-graph degree 1) labeled filled and
    every other entry hollow.

    >>> labeled_antichain_member(1).perm
    (2, 1)
    >>> labeled_antichain_member(1).labels
    ('*', '*')
    """
    if k < 1:
        raise ValueError("index must be at least 1")
    pi = _oscillation_path_perm(k + 1)
    g = inversion_graph(pi)
    labels = tuple([
        FILLED if g.degree(v) <= 1 else HOLLOW for v in range(1, len(pi) + 1)
    ])
    return LabeledPermutation(pi, labels)


_FAMILIES = {
    "amr-oscillation": amr_oscillation_member,
    "amr-tarjan": amr_tarjan_member,
    "widdershins": widdershins_member,
    "labeled-path": labeled_antichain_member,
}

FAMILY_IDS = tuple(_FAMILIES)


def _family(family: str) -> Callable:
    """The generator ``k ->`` member k of the family (a LabeledPermutation
    for labeled-path)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_IDS}")
    return _FAMILIES[family]


def member_length(family: str, k: int) -> int:
    """Length of member ``k`` of the family."""
    return len(_family(family)(k))


def index_for_length(family: str, n: int) -> int:
    """The index whose member has length ``n`` (ValueError if none does)."""
    for k in range(1, n + 1):
        length = member_length(family, k)
        if length == n:
            return k
        if length > n:
            break
    raise ValueError(f"family {family!r} has no member of length {n}")


def antichain_member(family: str, k: int) -> Perm:
    """The k-th member of the family (the underlying permutation, for the
    labeled family).

    >>> antichain_member("amr-tarjan", 1)
    (2, 3, 4, 1)
    """
    member = _family(family)(k)
    return member.perm if isinstance(member, LabeledPermutation) else member


# ---------------------------------------------------------------------------
# certification


def verify_antichain(
    members: Sequence, leq: Callable
) -> tuple:
    """Certify pairwise incomparability by scanning for a comparable pair in
    both directions.  Returns ``(True, None)`` or ``(False, (i, j))`` with
    1-based original indices such that ``members[i] <= members[j]``.

    >>> from .perm import contains
    >>> verify_antichain([(1,), (2, 1)], contains)
    (False, (1, 2))
    """
    forward = find_good_pair(members, leq)
    if forward is not None:
        return (False, forward)
    m = len(members)
    backward = find_good_pair(list(reversed(members)), leq)
    if backward is not None:
        i, j = backward
        return (False, (m + 1 - i, m + 1 - j))
    return (True, None)
