"""Permutation classes given by finite bases: membership, enumeration,
minimal-nonmember search, unions, one-point extensions, closure membership,
and simple members.

A class is the set of permutations avoiding every basis element.  Derived
classes (closures, the one-point extension) are exposed as membership
oracles; exact bases are computed only up to an explicit search bound.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .guards import check_size
from .perm import (
    Perm,
    check_perm,
    components,
    contains,
    decompose_tree,
    delete_entry,
    is_simple,
    one_point_deletions,
    patterns_of_length,
)


def _perm_sort_key(pi: Perm):
    return (len(pi), pi)


@dataclass(frozen=True)
class PermClass:
    """The set of permutations avoiding every element of ``basis``.

    The basis is minimalized on construction (any element containing a
    shorter one is dropped) and stored sorted by length then value, so equal
    classes built from different inputs compare equal.  An empty basis
    denotes the class of all permutations.
    """

    basis: tuple = ()
    name: Optional[str] = None

    def __post_init__(self):
        elems = [tuple(b) for b in self.basis]
        for b in elems:
            check_perm(b)
        elems = sorted(set(elems), key=_perm_sort_key)
        kept = []
        for b in elems:
            if not any(contains(prev, b) for prev in kept):
                kept.append(b)
        object.__setattr__(self, "basis", tuple(kept))

    def member(self, pi: Perm) -> bool:
        """True iff no basis element is contained in ``pi``.

        >>> avoiding((5, 4, 3, 2, 1)).member((4, 3, 2, 6, 7, 9, 1, 8, 5))
        True
        >>> avoiding((2, 4, 1, 3), (3, 1, 4, 2)).member((2, 4, 1, 3))
        False
        """
        return not any(contains(b, pi) for b in self.basis)

    def max_basis_length(self) -> int:
        return max((len(b) for b in self.basis), default=0)

    def describe(self) -> str:
        inner = ", ".join(" ".join(str(v) for v in b) for b in self.basis)
        return f"Av({inner})"


def avoiding(*basis: Perm, name: Optional[str] = None) -> PermClass:
    """Convenience constructor: ``avoiding((3,2,1), (3,4,1,2))``."""
    return PermClass(tuple(basis), name)


def _layers(
    oracle: Callable[[Perm], bool], nmax: int, probes: Optional[int] = None
) -> Iterator[tuple]:
    """Yield ``(members, minimal_nonmembers)`` of a downward-closed set, as
    two sets, for each length 0..nmax in turn.

    A length-n candidate is a length-(n-1) member with the value n inserted
    at one position; deleting its maximum gives back that parent, so every
    permutation is a candidate at most once.  A candidate is rejected as
    soon as a probed one-point deletion is missing from the previous layer,
    and only a survivor is put to ``oracle``.  With ``probes=None`` every
    deletion is probed, so a survivor the oracle refuses is exactly a
    minimal nonmember.

    For a class with basis elements of length at most k, probing k
    deletions (other than the inserted point) is already exact with the
    oracle ``pi not in basis``: the parent avoids the basis, so an
    occurrence of a basis element uses the inserted point and at most k-1
    other entries, and deleting any probed entry outside it leaves a
    nonmember.  When fewer than k other entries exist, all are probed, and
    the only occurrence that can remain is the whole candidate.
    """
    members = {()} if oracle(()) else set()
    yield members, (set() if members else {()})
    for n in range(1, nmax + 1):
        others = n - 1 if probes is None else min(probes, n - 1)
        probe_at = [
            [i for i in range(1, n + 1) if i != pos + 1][:others] for pos in range(n)
        ]
        prev, members, nonmembers = members, set(), set()
        for parent in prev:
            for pos in range(n):
                pi = parent[:pos] + (n,) + parent[pos:]
                for i in probe_at[pos]:
                    if delete_entry(pi, i) not in prev:
                        break
                else:
                    (members if oracle(pi) else nonmembers).add(pi)
        yield members, nonmembers


def _class_layers(c: PermClass, nmax: int) -> Iterator[tuple]:
    """:func:`_layers` of a finitely based class, with no containment test."""
    return _layers(lambda pi: pi not in c.basis, nmax, c.max_basis_length())


#: Default length cap of :func:`enumerate_members`.
ENUMERATE_MAX_N = 10


def enumerate_members(c: PermClass, n: int, max_n: Optional[int] = None) -> tuple:
    """All members of length ``n``, sorted lexicographically.

    >>> enumerate_members(avoiding((2, 1)), 5)
    ((1, 2, 3, 4, 5),)
    """
    check_size("enumerate", n, ENUMERATE_MAX_N, max_n)
    for members, _ in _class_layers(c, n):
        pass
    return tuple(sorted(members))


def _minimal_nonmembers_unbounded(
    oracle: Callable[[Perm], bool], nmax: int
) -> tuple:
    """Minimal nonmembers of a downward-closed oracle, lengths 0..nmax."""
    found = [pi for _, nonmembers in _layers(oracle, nmax) for pi in nonmembers]
    return tuple(sorted(found, key=_perm_sort_key))


def minimal_nonmembers(
    oracle: Callable[[Perm], bool], nmax: int, max_n: Optional[int] = None
) -> tuple:
    """All π with |π| ≤ nmax where the oracle is false but true on every
    one-entry deletion.  The oracle must be downward-closed; sorted output.

    >>> minimal_nonmembers(avoiding((2, 1)).member, 4)
    ((2, 1),)
    """
    check_size("minimal_nonmembers", nmax, 9, max_n)
    return _minimal_nonmembers_unbounded(oracle, nmax)


def union_basis(c: PermClass, d: PermClass) -> PermClass:
    """The exact basis of C ∪ D, found by searching every length up to the
    sum of the two maximum basis lengths (no longer minimal nonmember can
    exist, since one must merge a basis element of each class).

    >>> union_basis(avoiding((1, 2)), avoiding((2, 1))).basis
    ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2))
    """
    bound = c.max_basis_length() + d.max_basis_length()
    oracle = lambda pi: c.member(pi) or d.member(pi)
    return PermClass(_minimal_nonmembers_unbounded(oracle, bound))


def plus_one_member(pi: Perm, c: PermClass) -> bool:
    """True iff ``pi`` is empty or some one-entry deletion of it lies in C
    (that is, π is at most one point away from the class).

    >>> plus_one_member((1, 2, 3), avoiding((1, 2)))
    False
    >>> plus_one_member((1, 2), avoiding((1, 2)))
    True
    """
    if len(pi) == 0:
        return True
    return any(c.member(d) for d in one_point_deletions(pi))


@dataclass(frozen=True)
class PlusOneBasisResult:
    """Outcome of a one-point-extension basis search."""

    basis_class: PermClass
    searched_to: int
    exact: bool


def plus_one_basis(
    c: PermClass, cap: Optional[int] = None, max_n: Optional[int] = None
) -> PlusOneBasisResult:
    """Basis of the class of permutations at most one point from C.

    Searching every length up to m(m+1), where m is C's maximum basis
    length, is provably exhaustive, so the result is exact when the search
    reaches that bound; a smaller explicit ``cap`` yields evidence only
    (``exact=False``).

    >>> r = plus_one_basis(avoiding((1, 2)))
    >>> (r.searched_to, r.exact)
    (6, True)
    >>> r.basis_class.basis
    ((1, 2, 3), (2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2), (3, 4, 1, 2))
    """
    m = c.max_basis_length()
    bound = m * (m + 1)
    if cap is not None and cap < bound:
        searched_to, exact = cap, False
    else:
        searched_to, exact = bound, True
    check_size("plus_one_basis", searched_to, 9, max_n)
    found = _minimal_nonmembers_unbounded(lambda p: plus_one_member(p, c), searched_to)
    return PlusOneBasisResult(PermClass(found), searched_to, exact)


def _component_closure(pi: Perm, c: PermClass, direction: str) -> bool:
    return all(c.member(comp) for comp in components(pi, direction))


def _substitution_closure(pi: Perm, c: PermClass) -> bool:
    if not c.member((1,)):
        return False
    if contains((1, 2), pi) and not c.member((1, 2)):
        return False
    if contains((2, 1), pi) and not c.member((2, 1)):
        return False
    for k in range(4, len(pi) + 1):
        for pattern in patterns_of_length(pi, k):
            if is_simple(pattern) and not c.member(pattern):
                return False
    return True


def _separable_closure(pi: Perm, c: PermClass) -> bool:
    memo = {}

    def sep(p: Perm) -> bool:
        if p in memo:
            return memo[p]
        if c.member(p):
            result = True
        else:
            comps = components(p)
            if len(comps) > 1 and all(sep(q) for q in comps):
                result = True
            else:
                skews = components(p, "skew")
                result = len(skews) > 1 and all(sep(q) for q in skews)
        memo[p] = result
        return result

    return sep(pi)


_CLOSURES = {
    "sum": lambda pi, c: _component_closure(pi, c, "direct"),
    "skew": lambda pi, c: _component_closure(pi, c, "skew"),
    "substitution": _substitution_closure,
    "separable": _separable_closure,
}

CLOSURE_KINDS = tuple(_CLOSURES)


def closure_member(pi: Perm, c: PermClass, kind: str) -> bool:
    """Membership in a closure of C.

    * ``sum``: every direct-sum component of π is in C.
    * ``skew``: every skew-sum component of π is in C.
    * ``substitution``: every simple pattern of π is in C (lengths 4 and up,
      plus 12, 21, and 1 where contained).
    * ``separable``: π is in C, or π splits as a direct or skew sum with
      both parts in the separable closure.

    The empty permutation is in a closure of C exactly when it is in C.

    >>> closure_member((2, 4, 1, 3), avoiding((2, 4, 1, 3), (3, 1, 4, 2)), "substitution")
    False
    >>> closure_member((2, 1, 4, 3, 6, 5), avoiding((1, 2), (3, 2, 1)), "sum")
    True
    >>> closure_member((2, 1, 4, 3, 6, 5), avoiding((2, 1)), "sum")
    False
    """
    if kind not in _CLOSURES:
        raise ValueError(f"unknown closure kind {kind!r}; expected one of {CLOSURE_KINDS}")
    return _CLOSURES[kind](pi, c) if pi else c.member(pi)


#: The skeleton of each kind of tree node other than ``simple``.
_SKELETONS = {"leaf": (1,), "plus": (1, 2), "minus": (2, 1)}


def closure_member_tree(pi: Perm, c: PermClass) -> bool:
    """Substitution-closure membership via the decomposition tree: true iff
    the skeleton of every tree node is in C (1 for leaves, 12 or 21 for sum
    and skew nodes, the simple skeleton otherwise).  Independent of the
    simple-pattern test in :func:`closure_member`; the two must agree.
    """
    if len(pi) == 0:
        return c.member(pi)

    def walk(node) -> bool:
        skeleton = _SKELETONS.get(node.kind, node.skeleton)
        return c.member(skeleton) and all(walk(child) for child in node.children)

    return walk(decompose_tree(pi))


def simples_in_class(
    c: PermClass, nmax: int, max_n: Optional[int] = None
) -> tuple:
    """All simple members of C with length in [2, nmax], sorted.

    >>> simples_in_class(avoiding(), 4)
    ((1, 2), (2, 1), (2, 4, 1, 3), (3, 1, 4, 2))
    """
    check_size("simples_in_class", nmax, 9, max_n)
    out = [
        pi
        for members, _ in _class_layers(c, nmax)
        for pi in members
        if len(pi) >= 2 and is_simple(pi)
    ]
    return tuple(sorted(out, key=_perm_sort_key))


def downward_closure(xs: Iterable[Perm], n: int) -> tuple:
    """All length-``n`` patterns of members of ``xs``, sorted.

    >>> downward_closure([(2, 4, 1, 3)], 3)
    ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2))
    """
    out = set()
    for pi in xs:
        pi = tuple(pi)
        if len(pi) >= n:
            out.update(patterns_of_length(pi, n))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# serialization


def class_to_json(c: PermClass) -> dict:
    data = {"basis": [list(b) for b in c.basis]}
    if c.name is not None:
        data["name"] = c.name
    return data


def class_from_json(data) -> PermClass:
    if isinstance(data, str):
        data = json.loads(data)
    basis = tuple(tuple(b) for b in data["basis"])
    return PermClass(basis, data.get("name"))
