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
    _slot_bounds,
    _walk,
    _witness,
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
    denotes the class of all permutations.  Each basis element's
    containment search plan is made once, here, and kept beside it.
    """

    basis: tuple = ()
    name: Optional[str] = None

    def __post_init__(self):
        elems = [check_perm(b) for b in self.basis]
        elems = sorted(set(elems), key=_perm_sort_key)
        plans = []
        for b in elems:
            if all(_witness(prev, b, None, plan) is None for prev, plan in plans):
                plans.append((b, _slot_bounds(b)))
        object.__setattr__(self, "basis", tuple([b for b, _ in plans]))
        object.__setattr__(self, "_plans", tuple(plans))

    def member(self, pi: Perm) -> bool:
        """True iff no basis element is contained in ``pi``.

        >>> avoiding((5, 4, 3, 2, 1)).member((4, 3, 2, 6, 7, 9, 1, 8, 5))
        True
        >>> avoiding((2, 4, 1, 3), (3, 1, 4, 2)).member((2, 4, 1, 3))
        False
        """
        for b, plan in self._plans:
            if _witness(b, pi, None, plan) is not None:
                return False
        return True

    def max_basis_length(self) -> int:
        return max((len(b) for b in self.basis), default=0)


def avoiding(*basis: Perm, name: Optional[str] = None) -> PermClass:
    """Convenience constructor: ``avoiding((3,2,1), (3,4,1,2))``."""
    return PermClass(tuple(basis), name)


#: ``_DROP[g]`` lowers every byte above ``g`` by one and ``_BYTE[g]`` is the
#: byte g, so ``p.translate(_DROP[g], _BYTE[g])`` cuts the value g out of a
#: packed permutation and reduces what is left, in one call.
_BYTES = bytes(range(256))
_DROP = [_BYTES[: g + 1] + _BYTES[g:255] for g in range(256)]
_BYTE = [bytes((g,)) for g in range(256)]
#: The longest permutation that packs into bytes, one value per byte.
PACKED_MAX_N = 255


def _delete(p: bytes, j: int) -> bytes:
    """The packed one-point deletion of the entry at 0-based position ``j``:
    one translation deletes the byte ``p[j]`` and lowers every larger one."""
    g = p[j]
    return p.translate(_DROP[g], _BYTE[g])


def _layers(oracle: Callable[[bytes], bool] | set, nmax: int) -> Iterator[tuple]:
    """Yield ``(members, minimal_nonmembers)`` of a downward-closed set, as
    two lists, for each length 0..nmax in turn.

    Permutations are packed: ``bytes`` whose entry i is the value at
    position i, so a layer is sorted by memcmp and a deletion is one byte
    translation (:func:`_delete`).  A length above :data:`PACKED_MAX_N` is
    refused before any layer is built.  The set is given in one of two ways:

    * ``oracle`` is a callable on packed permutations, true on the members.
      Every one-point deletion of a candidate is probed and every survivor
      is put to ``oracle``, so a survivor it refuses is exactly a minimal
      nonmember.
    * ``oracle`` is a class basis: a set of packed permutations whose
      longest element has length k.  The members avoid it.  Only k
      deletions of a candidate other than the inserted point are probed
      (all of them while there are fewer), a survivor is asked
      ``p not in basis`` only at lengths up to k, and above k, where no
      basis element has its length, every survivor is a member and is
      appended with no test at all.

    A length-n candidate is a length-(n-1) member with the value n inserted
    at one position; deleting its maximum gives back that parent, so every
    permutation is a candidate at most once and the lists hold no repeats.
    A candidate is rejected as soon as a probed one-point deletion is
    missing from the previous layer.

    Probing k deletions is exact for a basis: the parent avoids the basis,
    so an occurrence of a basis element uses the inserted point and at most
    k-1 other entries, and deleting any probed entry outside it leaves a
    nonmember.  When fewer than k other entries exist, all are probed, and
    the only occurrence that can remain is the whole candidate, which is
    then a basis element; above length k none can remain.

    The previous layer is probed through an index, not built deletion by
    deletion: ``index[parent]`` has bit ``pos`` set when inserting the
    maximum at ``pos`` into ``parent`` gave a member, so it describes the
    layer exactly and is keyed by the packed parents that exist anyway.
    Deleting the maximum leaves the parent's entries in order, so the first
    k entries of a candidate other than its maximum are parent entries 1..k
    wherever the maximum sits.  Deleting parent entry j from the candidate
    with the maximum at ``pos`` gives ``delete_entry(parent, j)`` with the
    maximum at ``pos - 1`` when ``j <= pos`` and at ``pos`` otherwise.  So
    each parent needs k deletions, one lookup each, and the positions that
    survive probe j are those of ``m`` below bit j and of ``m << 1`` from
    bit j up, where ``m`` is the index entry of that deletion.  Parents are
    taken in the order they were found, and each parent's survivors are
    visited in ascending position order.
    """
    if nmax > PACKED_MAX_N:
        raise ValueError(
            f"length {nmax} is above {PACKED_MAX_N}: the layer generator packs "
            f"one value per byte"
        )
    if callable(oracle):
        k = nmax  # every deletion is probed and every length is asked
    else:
        basis = oracle
        k = max(map(len, basis), default=0)
        oracle = lambda p: p not in basis
    members = [b""] if oracle(b"") else []
    yield members, ([] if members else [b""])
    index = {}
    for n in range(1, nmax + 1):
        # deleting parent entry j (0-based) keeps the bits of m below bit
        # j + 1 and those of m << 1 from bit j + 1 up
        probes = [(j, (2 << j) - 1, -(2 << j)) for j in range(min(k, n - 1))]
        top, everywhere = _BYTE[n], (1 << n) - 1
        prev, get = members, index.get
        members, nonmembers, index = [], [], {}
        append = members.append
        for parent in prev:
            free = everywhere
            for j, low, high in probes:
                g = parent[j]
                m = get(parent.translate(_DROP[g], _BYTE[g]), 0)
                free &= m & low | m << 1 & high
                if not free:
                    break
            if n > k:
                if free:
                    index[parent] = free
                    while free:
                        bit = free & -free
                        free ^= bit
                        pos = bit.bit_length() - 1
                        append(top.join((parent[:pos], parent[pos:])))
                continue
            kept = 0
            while free:
                bit = free & -free
                free ^= bit
                pos = bit.bit_length() - 1
                pi = top.join((parent[:pos], parent[pos:]))
                if oracle(pi):
                    append(pi)
                    kept |= bit
                else:
                    nonmembers.append(pi)
            if kept:
                index[parent] = kept
        yield members, nonmembers


def _tuple_layers(oracle: Callable[[Perm], bool], nmax: int) -> Iterator[tuple]:
    """:func:`_layers` for an oracle on tuples, with every deletion probed:
    yields each length's members and minimal nonmembers as iterators of
    tuples, which convert only what is read."""
    for members, nonmembers in _layers(lambda p: oracle(tuple(p)), nmax):
        yield map(tuple, members), map(tuple, nonmembers)


def _class_layers(c: PermClass, nmax: int) -> Iterator[tuple]:
    """:func:`_layers` of a finitely based class, given by its packed basis,
    so no containment test runs and no candidate longer than the longest
    basis element is tested at all."""
    return _layers({bytes(b) for b in c.basis}, nmax)


def _class_sets(c: PermClass, nmax: int) -> list:
    """C's packed members of each length 0..nmax, one set per length."""
    return [set(members) for members, _ in _class_layers(c, nmax)]


def _basis_class(oracle: Callable[[bytes], bool], nmax: int) -> PermClass:
    """The class whose basis is the minimal nonmembers of a downward-closed
    packed oracle, lengths 0..nmax.  Minimal nonmembers are pairwise
    incomparable, so the basis is stored as found, sorted, with none of the
    containment tests that :class:`PermClass` runs to minimalize a basis."""
    found = [p for _, nonmembers in _layers(oracle, nmax) for p in nonmembers]
    found.sort(key=lambda p: (len(p), p))
    basis = tuple(map(tuple, found))
    c = object.__new__(PermClass)
    object.__setattr__(c, "basis", basis)
    object.__setattr__(c, "name", None)
    object.__setattr__(c, "_plans", tuple([(b, _slot_bounds(b)) for b in basis]))
    return c


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
    members.sort()
    return tuple(map(tuple, members))


def minimal_nonmembers(
    oracle: Callable[[Perm], bool], nmax: int, max_n: Optional[int] = None
) -> tuple:
    """All π with |π| ≤ nmax where the oracle is false but true on every
    one-entry deletion.  The oracle must be downward-closed; sorted output.

    >>> minimal_nonmembers(avoiding((2, 1)).member, 4)
    ((2, 1),)
    """
    check_size("minimal_nonmembers", nmax, 9, max_n)
    found = [pi for _, nonmembers in _tuple_layers(oracle, nmax) for pi in nonmembers]
    return tuple(sorted(found, key=_perm_sort_key))


def union_basis(c: PermClass, d: PermClass) -> PermClass:
    """The exact basis of C ∪ D, found by searching every length up to the
    sum of the two maximum basis lengths (no longer minimal nonmember can
    exist, since one must merge a basis element of each class).  The search
    runs under the fixed cap of :func:`minimal_nonmembers`, so a bound above
    9 is refused before any layer is built.  C's and D's members come from
    their own layers, so π ∈ C ∪ D is two set lookups and no containment
    test is run.

    >>> union_basis(avoiding((1, 2)), avoiding((2, 1))).basis
    ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2))
    """
    bound = c.max_basis_length() + d.max_basis_length()
    check_size("minimal_nonmembers", bound, 9)
    cs, ds = _class_sets(c, bound), _class_sets(d, bound)
    oracle = lambda p: p in cs[len(p)] or p in ds[len(p)]
    return _basis_class(oracle, bound)


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
    (``exact=False``).  C's members come from its own layers, so π is in
    the extension when some one-point deletion of it is in that set, as in
    :func:`plus_one_member` but with no containment test.

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
    cs = _class_sets(c, max(searched_to - 1, 0))

    def oracle(p: bytes) -> bool:
        if not p:
            return True
        shorter = cs[len(p) - 1]
        return any(_delete(p, j) in shorter for j in range(len(p)))

    return PlusOneBasisResult(_basis_class(oracle, searched_to), searched_to, exact)


#: The tree nodes each closure splits.  C must hold the whole of every node
#: the walk does not split, and, for the substitution closure, the skeleton
#: of every node it does (12 or 21 for a sum node).
_CLOSURES = {
    "sum": ("plus",),
    "skew": ("minus",),
    "substitution": ("plus", "minus", "simple"),
    "separable": ("plus", "minus"),
}

CLOSURE_KINDS = tuple(_CLOSURES)


def closure_member(pi: Perm, c: PermClass, kind: str) -> bool:
    """Membership in a closure of C, decided by one walk down the
    substitution decomposition of π that splits a node wherever the closure
    allows and asks C only about what it does not split.

    * ``sum``: every direct-sum component of π is in C.
    * ``skew``: every skew-sum component of π is in C.
    * ``separable``: π splits as a direct or skew sum of members of the
      separable closure, or is in C.
    * ``substitution``: the skeleton of every node of π's decomposition
      tree is in C (1 for a leaf, 12 or 21 for a sum node, the simple
      skeleton otherwise).

    This is exact because C is downward closed: every component and every
    skeleton of a member of C is in C.  The walk is that of :func:`permpat.perm.decompose_tree`,
    off an explicit stack, and stops at C's first no.  The empty permutation
    is in a closure of C exactly when it is in C; a non-permutation is a ``ValueError``.

    >>> closure_member((2, 4, 1, 3), avoiding((2, 4, 1, 3), (3, 1, 4, 2)), "substitution")
    False
    >>> closure_member((2, 1, 4, 3, 6, 5), avoiding((1, 2), (3, 2, 1)), "sum")
    True
    >>> closure_member((2, 1, 4, 3, 6, 5), avoiding((2, 1)), "sum")
    False
    """
    if kind not in _CLOSURES:
        raise ValueError(f"unknown closure kind {kind!r}; expected one of {CLOSURE_KINDS}")
    splits = _CLOSURES[kind]
    substitution = "simple" in splits
    for node, skeleton, _ in _walk(check_perm(pi), splits):
        if (substitution or node not in splits) and not c.member(skeleton):
            return False
    return True


def closure_member_tree(pi: Perm, c: PermClass) -> bool:
    """Substitution-closure membership: ``closure_member(pi, c,
    "substitution")``, true iff the skeleton of every node of π's
    decomposition tree is in C.
    """
    return closure_member(pi, c, "substitution")


def simples_in_class(
    c: PermClass, nmax: int, max_n: Optional[int] = None
) -> tuple:
    """All simple members of C with length in [2, nmax], sorted.

    >>> simples_in_class(avoiding(), 4)
    ((1, 2), (2, 1), (2, 4, 1, 3), (3, 1, 4, 2))
    """
    check_size("simples_in_class", nmax, 9, max_n)
    out = [p for members, _ in _class_layers(c, nmax) for p in members if is_simple(p)]
    out.sort(key=_perm_sort_key)
    return tuple(map(tuple, out))


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
    basis = data.get("basis") if isinstance(data, dict) else None
    if not (
        isinstance(basis, list)
        and all(isinstance(b, list) and all(type(v) is int for v in b) for b in basis)
        and isinstance(data.get("name", ""), str)
    ):
        raise ValueError(
            "a class is an object whose basis is an array of arrays of integers"
            " and whose optional name is a string"
        )
    return PermClass(tuple([tuple(b) for b in basis]), data.get("name"))
